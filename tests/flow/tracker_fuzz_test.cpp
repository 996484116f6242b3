// Property tests: the handshake tracker under adversarial packet
// interleavings.  Whatever order (or garbage) arrives, invariants hold:
// never more samples than distinct completed handshakes, every sample's
// timestamps are ordered, internal+external == total, and state never
// exceeds table capacity.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "flow/handshake_tracker.hpp"
#include "net/packet_builder.hpp"
#include "util/random.hpp"

namespace ruru {
namespace {

struct Event {
  Timestamp t;
  std::vector<std::uint8_t> frame;
};

class TrackerFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrackerFuzzTest, InvariantsHoldUnderRandomInterleaving) {
  Pcg32 rng(GetParam());
  constexpr int kFlows = 200;

  // Generate kFlows complete handshakes...
  std::vector<Event> events;
  for (int i = 0; i < kFlows; ++i) {
    const Ipv4Address client(Ipv4Address(10, 1, 0, 0).value() + rng.bounded(64));
    const Ipv4Address server(Ipv4Address(10, 2, 0, 0).value() + rng.bounded(64));
    const auto sport = static_cast<std::uint16_t>(10'000 + i);
    const std::uint32_t isn_c = rng.next_u32();
    const std::uint32_t isn_s = rng.next_u32();
    const Timestamp t0 = Timestamp::from_ms(static_cast<std::int64_t>(rng.bounded(10'000)));

    TcpFrameSpec syn;
    syn.src_ip = client;
    syn.dst_ip = server;
    syn.src_port = sport;
    syn.dst_port = 443;
    syn.seq = isn_c;
    syn.flags = TcpFlags::kSyn;
    events.push_back({t0, build_tcp_frame(syn)});

    TcpFrameSpec synack;
    synack.src_ip = server;
    synack.dst_ip = client;
    synack.src_port = 443;
    synack.dst_port = sport;
    synack.seq = isn_s;
    synack.ack = isn_c + 1;
    synack.flags = TcpFlags::kSyn | TcpFlags::kAck;
    events.push_back({t0 + Duration::from_ms(100), build_tcp_frame(synack)});

    TcpFrameSpec ack;
    ack.src_ip = client;
    ack.dst_ip = server;
    ack.src_port = sport;
    ack.dst_port = 443;
    ack.seq = isn_c + 1;
    ack.ack = isn_s + 1;
    ack.flags = TcpFlags::kAck;
    events.push_back({t0 + Duration::from_ms(105), build_tcp_frame(ack)});

    // ...with random duplicates.
    if (rng.chance(0.3)) events.push_back({t0 + Duration::from_ms(1), build_tcp_frame(syn)});
    if (rng.chance(0.3)) {
      events.push_back({t0 + Duration::from_ms(101), build_tcp_frame(synack)});
    }
  }

  // Shuffle into a completely arbitrary arrival order (the tap never
  // reorders, but the tracker must still never misbehave).
  for (std::size_t i = events.size(); i > 1; --i) {
    std::swap(events[i - 1], events[rng.bounded(static_cast<std::uint32_t>(i))]);
  }

  HandshakeTracker tracker(512);
  std::uint64_t samples = 0;
  for (const auto& e : events) {
    PacketView view;
    ASSERT_EQ(parse_packet(e.frame, view), ParseStatus::kOk);
    const auto rss = static_cast<std::uint32_t>(FlowKey::from(view.tuple()).hash());
    if (auto s = tracker.process(view, e.t, rss, 0)) {
      ++samples;
      // Sample invariants regardless of interleaving.
      EXPECT_LE(s->syn_time.ns, s->synack_time.ns);
      EXPECT_LE(s->synack_time.ns, s->ack_time.ns);
      EXPECT_EQ((s->internal() + s->external()).ns, s->total().ns);
    }
    EXPECT_LE(tracker.table().size(), tracker.table().capacity());
  }
  // At most one sample per flow, no matter what arrived.
  EXPECT_LE(samples, static_cast<std::uint64_t>(kFlows));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrackerFuzzTest,
                         ::testing::Values(1, 7, 42, 1337, 0xDEAD, 0xBEEF, 2024, 31415));

// Oracle test: the same adversarial stream through a batched, prefetch-
// pipelined tracker (process_burst) and through a reference tracker fed
// one packet at a time, both on the build's probe kernel (the kernels
// themselves are checked against their scalar twins by GroupProbe.*).
// Every emitted sample must agree field-by-field, and the final stats
// and table occupancy must match — process_burst() is a pure
// acceleration, never a behaviour change.
class TrackerOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrackerOracleTest, SimdBurstMatchesScalarPerPacketOracle) {
  Pcg32 rng(GetParam() ^ 0x5EED);
  constexpr int kFlows = 200;

  std::vector<Event> events;
  for (int i = 0; i < kFlows; ++i) {
    // Few hosts/ports so flows collide hard in the table.
    const Ipv4Address client(Ipv4Address(10, 1, 0, 0).value() + rng.bounded(16));
    const Ipv4Address server(Ipv4Address(10, 2, 0, 0).value() + rng.bounded(8));
    const auto sport = static_cast<std::uint16_t>(10'000 + rng.bounded(64));
    const std::uint32_t isn_c = rng.next_u32();
    const std::uint32_t isn_s = rng.next_u32();
    const Timestamp t0 = Timestamp::from_ms(static_cast<std::int64_t>(rng.bounded(10'000)));

    TcpFrameSpec syn;
    syn.src_ip = client;
    syn.dst_ip = server;
    syn.src_port = sport;
    syn.dst_port = 443;
    syn.seq = isn_c;
    syn.flags = TcpFlags::kSyn;
    events.push_back({t0, build_tcp_frame(syn)});

    TcpFrameSpec synack;
    synack.src_ip = server;
    synack.dst_ip = client;
    synack.src_port = 443;
    synack.dst_port = sport;
    synack.seq = isn_s;
    synack.ack = isn_c + 1;
    synack.flags = TcpFlags::kSyn | TcpFlags::kAck;
    events.push_back({t0 + Duration::from_ms(100), build_tcp_frame(synack)});

    TcpFrameSpec ack;
    ack.src_ip = client;
    ack.dst_ip = server;
    ack.src_port = sport;
    ack.dst_port = 443;
    ack.seq = isn_c + 1;
    ack.ack = isn_s + 1;
    ack.flags = TcpFlags::kAck;
    events.push_back({t0 + Duration::from_ms(105), build_tcp_frame(ack)});

    if (rng.chance(0.3)) events.push_back({t0 + Duration::from_ms(1), build_tcp_frame(syn)});
    if (rng.chance(0.3)) {
      events.push_back({t0 + Duration::from_ms(101), build_tcp_frame(synack)});
    }
    if (rng.chance(0.1)) {
      TcpFrameSpec rst = ack;
      rst.flags = TcpFlags::kRst;
      events.push_back({t0 + Duration::from_ms(103), build_tcp_frame(rst)});
    }
  }
  for (std::size_t i = events.size(); i > 1; --i) {
    std::swap(events[i - 1], events[rng.bounded(static_cast<std::uint32_t>(i))]);
  }

  // Deliberately small table + window so saturation paths run too.
  HandshakeTracker simd(256, Duration::from_sec(30.0), 32);    // batched
  HandshakeTracker scalar(256, Duration::from_sec(30.0), 32);  // per packet

  std::vector<LatencySample> simd_samples;
  std::vector<LatencySample> scalar_samples;
  std::vector<TrackedPacket> burst;
  std::vector<PacketView> views(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(parse_packet(events[i].frame, views[i]), ParseStatus::kOk);
    const auto rss = static_cast<std::uint32_t>(FlowKey::from(views[i].tuple()).hash());
    burst.push_back({views[i], events[i].t, rss});
    // Flush in ragged burst sizes so batch boundaries move around.
    if (burst.size() == 1 + rng.bounded(32) || i + 1 == events.size()) {
      simd.process_burst(burst, 3, simd_samples);
      for (const auto& p : burst) {
        if (auto s = scalar.process(p.view, p.rx_time, p.rss_hash, 3)) {
          scalar_samples.push_back(*s);
        }
      }
      burst.clear();
    }
  }

  ASSERT_EQ(simd_samples.size(), scalar_samples.size());
  for (std::size_t i = 0; i < simd_samples.size(); ++i) {
    const auto& a = simd_samples[i];
    const auto& b = scalar_samples[i];
    EXPECT_EQ(a.client, b.client) << "sample " << i;
    EXPECT_EQ(a.server, b.server) << "sample " << i;
    EXPECT_EQ(a.client_port, b.client_port) << "sample " << i;
    EXPECT_EQ(a.server_port, b.server_port) << "sample " << i;
    EXPECT_EQ(a.syn_time.ns, b.syn_time.ns) << "sample " << i;
    EXPECT_EQ(a.synack_time.ns, b.synack_time.ns) << "sample " << i;
    EXPECT_EQ(a.ack_time.ns, b.ack_time.ns) << "sample " << i;
    EXPECT_EQ(a.rss_hash, b.rss_hash) << "sample " << i;
    EXPECT_EQ(a.queue_id, b.queue_id) << "sample " << i;
  }

  EXPECT_EQ(simd.stats().syn_seen, scalar.stats().syn_seen);
  EXPECT_EQ(simd.stats().syn_retransmissions, scalar.stats().syn_retransmissions);
  EXPECT_EQ(simd.stats().synack_seen, scalar.stats().synack_seen);
  EXPECT_EQ(simd.stats().synack_unmatched, scalar.stats().synack_unmatched);
  EXPECT_EQ(simd.stats().ack_matched, scalar.stats().ack_matched);
  EXPECT_EQ(simd.stats().rst_seen, scalar.stats().rst_seen);
  EXPECT_EQ(simd.stats().samples_emitted, scalar.stats().samples_emitted);
  EXPECT_EQ(simd.stats().table_drops, scalar.stats().table_drops);
  EXPECT_EQ(simd.table().size(), scalar.table().size());
  EXPECT_EQ(simd.table().stats().inserts, scalar.table().stats().inserts);
  EXPECT_EQ(simd.table().stats().hits, scalar.table().stats().hits);
  EXPECT_EQ(simd.table().stats().erases, scalar.table().stats().erases);
  EXPECT_EQ(simd.table().stats().insert_failures, scalar.table().stats().insert_failures);
  EXPECT_EQ(simd.table().stats().tag_mismatches, scalar.table().stats().tag_mismatches);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrackerOracleTest,
                         ::testing::Values(3, 9, 64, 2025, 0xCAFE, 86028157));

TEST(TrackerFuzz, RandomFlagCombinationsNeverCrash) {
  Pcg32 rng(77);
  HandshakeTracker tracker(256);
  for (int i = 0; i < 20'000; ++i) {
    TcpFrameSpec spec;
    spec.src_ip = Ipv4Address(Ipv4Address(10, 0, 0, 0).value() + rng.bounded(16));
    spec.dst_ip = Ipv4Address(Ipv4Address(10, 0, 0, 0).value() + rng.bounded(16));
    spec.src_port = static_cast<std::uint16_t>(rng.bounded(8));
    spec.dst_port = static_cast<std::uint16_t>(rng.bounded(8));
    spec.seq = rng.bounded(1000);
    spec.ack = rng.bounded(1000);
    spec.flags = static_cast<std::uint8_t>(rng.next_u32() & 0x3f);  // all flag combos
    const auto frame = build_tcp_frame(spec);
    PacketView view;
    ASSERT_EQ(parse_packet(frame, view), ParseStatus::kOk);
    tracker.process(view, Timestamp::from_ms(i), rng.next_u32(), 0);
  }
  // Tracker stats stay self-consistent.
  const auto& s = tracker.stats();
  EXPECT_LE(s.samples_emitted, s.ack_matched + 1);
  EXPECT_LE(tracker.table().size(), tracker.table().capacity());
}

}  // namespace
}  // namespace ruru
