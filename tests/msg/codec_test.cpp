#include "msg/codec.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "util/random.hpp"

namespace ruru {
namespace {

LatencySample sample_v4() {
  LatencySample s;
  s.client = Ipv4Address(10, 1, 0, 7);
  s.server = Ipv4Address(10, 2, 3, 4);
  s.client_port = 40'123;
  s.server_port = 443;
  s.syn_time = Timestamp::from_ns(1'000'000'123);
  s.synack_time = Timestamp::from_ns(1'128'000'456);
  s.ack_time = Timestamp::from_ns(1'133'000'789);
  s.rss_hash = 0xDEADBEEF;
  s.queue_id = 3;
  return s;
}

/// One sample travels as a batch of one.
Message encode_one(const LatencySample& s) { return encode_latency_batch({&s, 1}); }

/// The one sample a payload carries; nullopt when it is refused.
std::optional<LatencySample> decode_one(const Frame& payload) {
  std::vector<LatencySample> out;
  if (!decode_latency_payload(payload, out) || out.size() != 1) return std::nullopt;
  return out[0];
}

/// Byte offset of the first record's family byte: version(1) + count(2).
constexpr std::size_t kFamily = 3;

TEST(Codec, RoundTripV4) {
  const LatencySample s = sample_v4();
  const Message m = encode_one(s);
  EXPECT_EQ(m.topic(), kLatencyTopic);
  ASSERT_EQ(m.frames.size(), 2u);

  const auto d = decode_one(m.frames[1]);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->client == s.client);
  EXPECT_TRUE(d->server == s.server);
  EXPECT_EQ(d->client_port, s.client_port);
  EXPECT_EQ(d->server_port, s.server_port);
  EXPECT_EQ(d->syn_time.ns, s.syn_time.ns);
  EXPECT_EQ(d->synack_time.ns, s.synack_time.ns);
  EXPECT_EQ(d->ack_time.ns, s.ack_time.ns);
  EXPECT_EQ(d->rss_hash, s.rss_hash);
  EXPECT_EQ(d->queue_id, s.queue_id);
  // Derived latencies survive the trip exactly.
  EXPECT_EQ(d->external().ns, s.external().ns);
  EXPECT_EQ(d->internal().ns, s.internal().ns);
}

TEST(Codec, RoundTripV6) {
  LatencySample s = sample_v4();
  s.client = Ipv6Address::parse("2001:db8::1").value();
  s.server = Ipv6Address::parse("2001:db8:ffff::2").value();
  const Message m = encode_one(s);
  const auto d = decode_one(m.frames[1]);
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->client.is_v4());
  EXPECT_EQ(d->client.to_string(), "2001:db8::1");
  EXPECT_EQ(d->server.to_string(), "2001:db8:ffff::2");
}

TEST(Codec, RejectsWrongSize) {
  EXPECT_FALSE(decode_one(Frame::from_string("short")).has_value());
  EXPECT_FALSE(decode_one(Frame::from_string("junk")).has_value());
  EXPECT_FALSE(decode_one(Frame()).has_value());
  std::vector<std::uint8_t> too_long(200, 0);
  too_long[0] = 2;
  too_long[2] = 1;  // one record claimed, 197 bytes carried
  EXPECT_FALSE(decode_one(Frame::adopt(std::move(too_long))).has_value());
}

TEST(Codec, RejectsWrongVersionOrFamily) {
  const Message m = encode_one(sample_v4());
  std::vector<std::uint8_t> bytes(m.frames[1].data(), m.frames[1].data() + m.frames[1].size());
  bytes[0] = 99;  // bad version
  EXPECT_FALSE(decode_one(Frame::adopt(std::vector<std::uint8_t>(bytes))).has_value());
  bytes[0] = 2;
  bytes[kFamily] = 5;  // bad family
  EXPECT_FALSE(decode_one(Frame::adopt(std::move(bytes))).has_value());
}

TEST(Codec, RefusesVersionOnePayload) {
  // The retired single-sample layout, [version=1][record], is refused
  // like any foreign payload, and `out` is left as it was.
  const Message m = encode_one(sample_v4());
  std::vector<std::uint8_t> v1{1};
  v1.insert(v1.end(), m.frames[1].data() + kFamily, m.frames[1].data() + m.frames[1].size());
  std::vector<LatencySample> out(1, sample_v4());
  EXPECT_FALSE(decode_latency_payload(Frame::adopt(std::move(v1)), out));
  EXPECT_EQ(out.size(), 1u);
}

TEST(Codec, RoundTripInflowKindBits) {
  // In-flow and one-sided samples ride the same record: the kind and
  // orientation pack into the family byte's upper bits.
  LatencySample s = sample_v4();
  s.kind = SampleKind::kInflow;
  s.toward_client = true;
  const Message m = encode_one(s);
  // family byte = 4 | kind<<4 | toward_client<<6
  EXPECT_EQ(m.frames[1].data()[kFamily], 4 | (1 << 4) | (1 << 6));
  auto d = decode_one(m.frames[1]);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->kind, SampleKind::kInflow);
  EXPECT_TRUE(d->toward_client);
  EXPECT_EQ(d->total().ns, s.total().ns);

  s.kind = SampleKind::kOneSided;
  s.toward_client = false;
  d = decode_one(encode_one(s).frames[1]);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->kind, SampleKind::kOneSided);
  EXPECT_FALSE(d->toward_client);

  // A handshake sample's family byte is the bare family: the wire format
  // with the feature off is byte-identical to the pre-kind format.
  const Message h = encode_one(sample_v4());
  EXPECT_EQ(h.frames[1].data()[kFamily], 4);
}

TEST(Codec, RejectsBadKindBits) {
  const Message m = encode_one(sample_v4());
  std::vector<std::uint8_t> bytes(m.frames[1].data(), m.frames[1].data() + m.frames[1].size());
  bytes[kFamily] = 4 | (3 << 4);  // kind 3 is unassigned
  EXPECT_FALSE(decode_one(Frame::adopt(std::vector<std::uint8_t>(bytes))).has_value());
  bytes[kFamily] = 4 | 0x80;  // reserved high bit
  EXPECT_FALSE(decode_one(Frame::adopt(std::move(bytes))).has_value());
}

TEST(CodecBatch, RoundTripMixedKinds) {
  std::vector<LatencySample> in;
  for (int i = 0; i < 30; ++i) {
    LatencySample s = sample_v4();
    s.client_port = static_cast<std::uint16_t>(2000 + i);
    s.kind = static_cast<SampleKind>(i % 3);
    s.toward_client = (i % 2) == 0;
    in.push_back(s);
  }
  const Message m = encode_latency_batch(in);
  std::vector<LatencySample> out;
  ASSERT_TRUE(decode_latency_payload(m.frames[1], out));
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].kind, in[i].kind) << i;
    EXPECT_EQ(out[i].toward_client, in[i].toward_client) << i;
  }
}

TEST(CodecBatch, RejectsBadKindBitsInRecord) {
  std::vector<LatencySample> in(2, sample_v4());
  const Message m = encode_latency_batch(in);
  std::vector<std::uint8_t> bytes(m.frames[1].data(), m.frames[1].data() + m.frames[1].size());
  bytes[3 + 67] = 4 | (3 << 4);  // second record: unassigned kind
  std::vector<LatencySample> out;
  EXPECT_FALSE(decode_latency_payload(Frame::adopt(std::move(bytes)), out));
  EXPECT_TRUE(out.empty());
}

TEST(CodecBatch, RoundTripEmpty) {
  const Message m = encode_latency_batch({});
  EXPECT_EQ(m.topic(), kLatencyTopic);
  ASSERT_EQ(m.frames.size(), 2u);
  std::vector<LatencySample> out;
  EXPECT_TRUE(decode_latency_payload(m.frames[1], out));
  EXPECT_TRUE(out.empty());
}

TEST(CodecBatch, RoundTripSingle) {
  const LatencySample s = sample_v4();
  const Message m = encode_latency_batch({&s, 1});
  std::vector<LatencySample> out;
  ASSERT_TRUE(decode_latency_payload(m.frames[1], out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].client == s.client);
  EXPECT_EQ(out[0].ack_time.ns, s.ack_time.ns);
  EXPECT_EQ(out[0].queue_id, s.queue_id);
}

TEST(CodecBatch, RoundTripManyMixedFamilies) {
  std::vector<LatencySample> in;
  for (int i = 0; i < 100; ++i) {
    LatencySample s = sample_v4();
    s.client_port = static_cast<std::uint16_t>(1000 + i);
    s.syn_time = Timestamp::from_ns(i * 1'000);
    if (i % 3 == 0) {
      s.client = Ipv6Address::parse("2001:db8::1").value();
      s.server = Ipv6Address::parse("2001:db8:ffff::2").value();
    }
    in.push_back(s);
  }
  const Message m = encode_latency_batch(in);
  std::vector<LatencySample> out;
  ASSERT_TRUE(decode_latency_payload(m.frames[1], out));
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_TRUE(out[i].client == in[i].client) << i;
    EXPECT_TRUE(out[i].server == in[i].server) << i;
    EXPECT_EQ(out[i].client_port, in[i].client_port) << i;
    EXPECT_EQ(out[i].syn_time.ns, in[i].syn_time.ns) << i;
  }
}

TEST(CodecBatch, TopicFrameIsInterned) {
  const LatencySample s = sample_v4();
  const Message a = encode_latency_batch({&s, 1});
  const Message b = encode_latency_batch({&s, 1});
  const Message c = encode_latency_batch({});
  // All latency messages share one topic buffer: no per-publish topic
  // allocation.
  EXPECT_EQ(a.frames[0].data(), b.frames[0].data());
  EXPECT_EQ(a.frames[0].data(), c.frames[0].data());
}

TEST(CodecBatch, RejectsTruncatedPayload) {
  std::vector<LatencySample> in(3, sample_v4());
  const Message m = encode_latency_batch(in);
  std::vector<std::uint8_t> bytes(m.frames[1].data(), m.frames[1].data() + m.frames[1].size());
  bytes.resize(bytes.size() - 10);  // truncate mid-record
  std::vector<LatencySample> out;
  out.push_back(sample_v4());  // pre-existing content must survive rejection
  EXPECT_FALSE(decode_latency_payload(Frame::adopt(std::move(bytes)), out));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_FALSE(decode_latency_payload(Frame(), out));
  EXPECT_FALSE(decode_latency_payload(Frame::from_string("xx"), out));
}

TEST(CodecBatch, RejectsCorruptVersionByte) {
  const LatencySample s = sample_v4();
  const Message m = encode_latency_batch({&s, 1});
  std::vector<std::uint8_t> bytes(m.frames[1].data(), m.frames[1].data() + m.frames[1].size());
  bytes[0] = 99;
  std::vector<LatencySample> out;
  EXPECT_FALSE(decode_latency_payload(Frame::adopt(std::move(bytes)), out));
  EXPECT_TRUE(out.empty());
}

TEST(CodecBatch, RejectsCorruptRecordFamily) {
  std::vector<LatencySample> in(4, sample_v4());
  const Message m = encode_latency_batch(in);
  std::vector<std::uint8_t> bytes(m.frames[1].data(), m.frames[1].data() + m.frames[1].size());
  bytes[3 + 67 * 2] = 9;  // third record's family byte
  std::vector<LatencySample> out;
  EXPECT_FALSE(decode_latency_payload(Frame::adopt(std::move(bytes)), out));
  EXPECT_TRUE(out.empty());  // whole-batch rejection, no partial decode
}

TEST(CodecBatch, RejectsOversizeRecordCount) {
  // A count beyond kMaxLatencyBatch is rejected even when the payload
  // length matches it exactly (no multi-megabyte allocation, no UB).
  const std::size_t count = kMaxLatencyBatch + 1;
  std::vector<std::uint8_t> bytes(3 + count * 67, 0);
  bytes[0] = 2;
  bytes[1] = static_cast<std::uint8_t>(count >> 8);
  bytes[2] = static_cast<std::uint8_t>(count & 0xFF);
  std::vector<LatencySample> out;
  EXPECT_FALSE(decode_latency_payload(Frame::adopt(std::move(bytes)), out));
  EXPECT_TRUE(out.empty());
}

TEST(CodecBatch, RejectsCountLengthMismatch) {
  const LatencySample s = sample_v4();
  const Message m = encode_latency_batch({&s, 1});
  std::vector<std::uint8_t> bytes(m.frames[1].data(), m.frames[1].data() + m.frames[1].size());
  bytes[2] = 2;  // claims two records, carries one
  std::vector<LatencySample> out;
  EXPECT_FALSE(decode_latency_payload(Frame::adopt(std::move(bytes)), out));
}

TEST(Codec, FuzzRoundTrip) {
  Pcg32 rng(31337);
  for (int i = 0; i < 500; ++i) {
    LatencySample s;
    s.client = Ipv4Address(rng.next_u32());
    s.server = Ipv4Address(rng.next_u32());
    s.client_port = static_cast<std::uint16_t>(rng.next_u32());
    s.server_port = static_cast<std::uint16_t>(rng.next_u32());
    s.syn_time = Timestamp::from_ns(static_cast<std::int64_t>(rng.next_u64() >> 1));
    s.synack_time = Timestamp::from_ns(static_cast<std::int64_t>(rng.next_u64() >> 1));
    s.ack_time = Timestamp::from_ns(static_cast<std::int64_t>(rng.next_u64() >> 1));
    s.rss_hash = rng.next_u32();
    s.queue_id = static_cast<std::uint16_t>(rng.next_u32());
    const auto d = decode_one(encode_one(s).frames[1]);
    ASSERT_TRUE(d.has_value());
    EXPECT_TRUE(d->client == s.client);
    EXPECT_EQ(d->ack_time.ns, s.ack_time.ns);
    EXPECT_EQ(d->rss_hash, s.rss_hash);
  }
}

}  // namespace
}  // namespace ruru
