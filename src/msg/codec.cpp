#include "msg/codec.hpp"

#include <cstring>

#include "util/byte_order.hpp"

namespace ruru {

namespace {

// 2, not 1: the retired single-sample format carried version 1.
constexpr std::uint8_t kVersion = 2;
// family(1) client16 server16 cport(2) sport(2) syn(8) synack(8) ack(8)
// rss(4) queue(2)
constexpr std::size_t kRecordSize = 1 + 16 + 16 + 2 + 2 + 8 + 8 + 8 + 4 + 2;
// version(1) + count(2) + count * record
constexpr std::size_t kBatchHeaderSize = 1 + 2;

void put_ip(std::uint8_t* p, const IpAddress& a) {
  if (a.is_v4()) {
    std::memset(p, 0, 16);
    store_be32(p + 12, a.v4.value());  // v4-mapped layout
  } else {
    std::memcpy(p, a.v6.bytes().data(), 16);
  }
}

IpAddress get_ip(const std::uint8_t* p, bool v4) {
  if (v4) return Ipv4Address(load_be32(p + 12));
  std::array<std::uint8_t, 16> b{};
  std::memcpy(b.data(), p, 16);
  return Ipv6Address(b);
}

void put_i64(std::uint8_t* p, std::int64_t v) {
  store_be64(p, static_cast<std::uint64_t>(v));
}

std::int64_t get_i64(const std::uint8_t* p) { return static_cast<std::int64_t>(load_be64(p)); }

void put_record(std::uint8_t* p, const LatencySample& s) {
  // Family byte doubles as the sample-kind carrier: low nibble is the
  // address family (4 or 6), bits 4-5 the SampleKind, bit 6 the in-flow
  // orientation.  A handshake sample (kind 0, toward_client false)
  // writes exactly the pre-feature byte, so the wire stays bit-identical
  // with the in-flow kernel off.
  p[0] = static_cast<std::uint8_t>((s.client.is_v4() ? 4 : 6) |
                                   (static_cast<std::uint8_t>(s.kind) << 4) |
                                   (s.toward_client ? 0x40 : 0));
  put_ip(p + 1, s.client);
  put_ip(p + 17, s.server);
  store_be16(p + 33, s.client_port);
  store_be16(p + 35, s.server_port);
  put_i64(p + 37, s.syn_time.ns);
  put_i64(p + 45, s.synack_time.ns);
  put_i64(p + 53, s.ack_time.ns);
  store_be32(p + 61, s.rss_hash);
  store_be16(p + 65, s.queue_id);
}

bool get_record(const std::uint8_t* p, LatencySample& s) {
  const std::uint8_t family = p[0] & 0x0f;
  const std::uint8_t kind = (p[0] >> 4) & 0x03;
  if (family != 4 && family != 6) return false;
  if (kind > static_cast<std::uint8_t>(SampleKind::kOneSided)) return false;
  if ((p[0] & 0x80) != 0) return false;  // reserved bit must be clear
  const bool v4 = family == 4;
  s.kind = static_cast<SampleKind>(kind);
  s.toward_client = (p[0] & 0x40) != 0;
  s.client = get_ip(p + 1, v4);
  s.server = get_ip(p + 17, v4);
  s.client_port = load_be16(p + 33);
  s.server_port = load_be16(p + 35);
  s.syn_time = Timestamp{get_i64(p + 37)};
  s.synack_time = Timestamp{get_i64(p + 45)};
  s.ack_time = Timestamp{get_i64(p + 53)};
  s.rss_hash = load_be32(p + 61);
  s.queue_id = load_be16(p + 65);
  return true;
}

}  // namespace

const Frame& latency_topic_frame() {
  static const Frame frame = Frame::from_string(kLatencyTopic);
  return frame;
}

Message encode_latency_batch(std::span<const LatencySample> samples) {
  const std::size_t count = samples.size() < kMaxLatencyBatch ? samples.size() : kMaxLatencyBatch;
  std::vector<std::uint8_t> buf(kBatchHeaderSize + count * kRecordSize);
  buf[0] = kVersion;
  store_be16(buf.data() + 1, static_cast<std::uint16_t>(count));
  std::uint8_t* p = buf.data() + kBatchHeaderSize;
  std::uint32_t batch_trace_id = 0;
  for (std::size_t i = 0; i < count; ++i, p += kRecordSize) {
    put_record(p, samples[i]);
    // Flight recorder: remember the first traced sample so consumers
    // can skip whole untraced batches with one compare.  Message
    // metadata only — the record bytes above are unchanged.
    if (batch_trace_id == 0) batch_trace_id = samples[i].trace_id;
  }

  Message m;
  m.trace_id = batch_trace_id;
  m.frames.reserve(2);
  m.frames.push_back(latency_topic_frame());
  m.frames.push_back(Frame::adopt(std::move(buf)));
  return m;
}

bool decode_latency_payload(const Frame& payload, std::vector<LatencySample>& out) {
  if (payload.size() < kBatchHeaderSize) return false;
  const std::uint8_t* p = payload.data();
  if (p[0] != kVersion) return false;
  const std::size_t count = load_be16(p + 1);
  if (count > kMaxLatencyBatch) return false;
  if (payload.size() != kBatchHeaderSize + count * kRecordSize) return false;

  const std::size_t base = out.size();
  out.resize(base + count);
  const std::uint8_t* rec = p + kBatchHeaderSize;
  for (std::size_t i = 0; i < count; ++i, rec += kRecordSize) {
    if (!get_record(rec, out[base + i])) {
      out.resize(base);  // reject the whole batch, leave out untouched
      return false;
    }
  }
  return true;
}

}  // namespace ruru
