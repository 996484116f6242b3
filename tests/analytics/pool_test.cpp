#include "analytics/pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>

#include "geo/world.hpp"

namespace ruru {
namespace {

/// One sample travels as a batch of one.
Message encode_one(const LatencySample& s) { return encode_latency_batch({&s, 1}); }

class PoolTest : public ::testing::Test {
 protected:
  PoolTest() {
    auto w = build_world(large_world_sites(8));
    EXPECT_TRUE(w.ok());
    world_ = std::make_unique<World>(std::move(w).value());
  }

  LatencySample sample(std::uint32_t client_ip) {
    LatencySample s;
    s.client = Ipv4Address(client_ip);
    s.server = Ipv4Address((100u << 24) + 7);
    s.syn_time = Timestamp::from_ms(0);
    s.synack_time = Timestamp::from_ms(100);
    s.ack_time = Timestamp::from_ms(105);
    return s;
  }

  std::unique_ptr<World> world_;
};

TEST_F(PoolTest, ProcessesAllPublishedSamples) {
  PubSocket bus;
  auto sub = bus.subscribe(std::string(kLatencyTopic), 1 << 14);
  EnrichmentPool pool(sub, world_->geo, world_->as, 3);
  std::atomic<int> sunk{0};
  pool.add_sink([&](const EnrichedSample&) { sunk.fetch_add(1); });
  pool.start();

  constexpr int kCount = 2'000;
  for (int i = 0; i < kCount; ++i) {
    bus.publish(encode_one(sample((100u << 24) + static_cast<std::uint32_t>(i % 4096))));
  }
  bus.close_all();
  pool.stop();

  EXPECT_EQ(pool.processed(), static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(sunk.load(), kCount);
  EXPECT_EQ(pool.decode_failures(), 0u);
  EXPECT_EQ(pool.combined_stats().enriched, static_cast<std::uint64_t>(kCount));
}

TEST_F(PoolTest, CountsDecodeFailures) {
  PubSocket bus;
  auto sub = bus.subscribe("", 128);
  EnrichmentPool pool(sub, world_->geo, world_->as, 1);
  pool.start();

  Message bogus("ruru.latency");
  bogus.add(Frame::from_string("not a sample"));
  bus.publish(bogus);
  Message no_payload("ruru.latency");
  bus.publish(no_payload);
  bus.close_all();
  pool.stop();

  EXPECT_EQ(pool.decode_failures(), 2u);
  EXPECT_EQ(pool.processed(), 0u);
}

TEST_F(PoolTest, MultipleSinksAllInvoked) {
  PubSocket bus;
  auto sub = bus.subscribe("", 128);
  EnrichmentPool pool(sub, world_->geo, world_->as, 2);
  std::atomic<int> a{0}, b{0};
  pool.add_sink([&](const EnrichedSample&) { a.fetch_add(1); });
  pool.add_sink([&](const EnrichedSample&) { b.fetch_add(1); });
  pool.start();
  for (int i = 0; i < 100; ++i) bus.publish(encode_one(sample((100u << 24) + 1)));
  bus.close_all();
  pool.stop();
  EXPECT_EQ(a.load(), 100);
  EXPECT_EQ(b.load(), 100);
}

TEST_F(PoolTest, BatchedMessagesCountSamplesNotMessages) {
  PubSocket bus;
  auto sub = bus.subscribe(std::string(kLatencyTopic), 1 << 14);
  EnrichmentPool pool(sub, world_->geo, world_->as, 3);
  std::atomic<int> sunk{0};
  pool.add_sink([&](const EnrichedSample&) { sunk.fetch_add(1); });
  pool.start();

  constexpr int kBatches = 50;
  constexpr int kBatchSize = 40;
  std::vector<LatencySample> batch;
  for (int b = 0; b < kBatches; ++b) {
    batch.clear();
    for (int i = 0; i < kBatchSize; ++i) {
      batch.push_back(sample((100u << 24) + static_cast<std::uint32_t>(b * kBatchSize + i) % 4096));
    }
    bus.publish(encode_latency_batch(batch), batch.size());
  }
  bus.close_all();
  pool.stop();

  // 50 messages carried 2000 samples: processed() is in samples.
  EXPECT_EQ(pool.processed(), static_cast<std::uint64_t>(kBatches * kBatchSize));
  EXPECT_EQ(sunk.load(), kBatches * kBatchSize);
  EXPECT_EQ(pool.decode_failures(), 0u);
  EXPECT_EQ(pool.combined_stats().enriched, static_cast<std::uint64_t>(kBatches * kBatchSize));
}

TEST_F(PoolTest, CorruptBatchIsOneDecodeFailure) {
  PubSocket bus;
  auto sub = bus.subscribe("", 128);
  EnrichmentPool pool(sub, world_->geo, world_->as, 1);
  pool.start();

  std::vector<LatencySample> batch(8, sample((100u << 24) + 1));
  const Message good = encode_latency_batch(batch);
  std::vector<std::uint8_t> bytes(good.frames[1].data(),
                                  good.frames[1].data() + good.frames[1].size());
  bytes.resize(bytes.size() - 5);  // truncate the last record
  Message corrupt("ruru.latency");
  corrupt.add(Frame::adopt(std::move(bytes)));
  bus.publish(corrupt, batch.size());
  bus.publish(good, batch.size());
  bus.close_all();
  pool.stop();

  // The corrupt batch is rejected whole (one failure, zero samples); the
  // good one decodes fully.
  EXPECT_EQ(pool.decode_failures(), 1u);
  EXPECT_EQ(pool.processed(), batch.size());
}

TEST_F(PoolTest, ShardedInboxConservesSamplesAcrossLanes) {
  // Fan-in lanes + sharded inbox (the production topology): 4 publisher
  // lanes over 3 workers — uneven split, every sample still processed
  // exactly once.
  PubSocket bus(1 << 14, /*fanin_lanes=*/4);
  auto sub = bus.subscribe(std::string(kLatencyTopic), 1 << 14);
  EnrichmentPool pool(sub, world_->geo, world_->as, 3);
  std::atomic<int> sunk{0};
  pool.add_sink([&](const EnrichedSample&) { sunk.fetch_add(1); });
  pool.start();

  constexpr int kCount = 4'000;
  for (int i = 0; i < kCount; ++i) {
    bus.publish_lane(static_cast<std::size_t>(i % 4),
                     encode_one(sample((100u << 24) + static_cast<std::uint32_t>(i % 4096))));
  }
  bus.close_all();
  pool.stop();

  EXPECT_EQ(pool.processed(), static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(sunk.load(), kCount);
  EXPECT_EQ(pool.decode_failures(), 0u);
}

TEST_F(PoolTest, ShardedInboxOffFallsBackToSharedScan) {
  // More threads than lanes: a sharded worker would own no lane, so the
  // pool takes the shared scan and every thread can pick up any lane.
  constexpr std::size_t kLanes = 2;
  PubSocket bus(1 << 14, kLanes);
  auto sub = bus.subscribe(std::string(kLatencyTopic), 1 << 14);
  EnrichmentPool pool(sub, world_->geo, world_->as, kLanes + 1);
  std::atomic<int> sunk{0};
  pool.add_sink([&](const EnrichedSample&) { sunk.fetch_add(1); });
  pool.start();

  constexpr int kCount = 2'000;
  for (int i = 0; i < kCount; ++i) {
    bus.publish_lane(static_cast<std::size_t>(i) % kLanes,
                     encode_one(sample((100u << 24) + static_cast<std::uint32_t>(i % 4096))));
  }
  bus.close_all();
  pool.stop();

  EXPECT_EQ(pool.processed(), static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(sunk.load(), kCount);
}

TEST_F(PoolTest, ShardedInboxKeepsLaneOrderPerWorker) {
  // Lane w goes to worker (w % threads); with threads == lanes each
  // lane is handled by exactly one worker, so batches from one lane
  // arrive at the sinks in publish order.
  constexpr std::size_t kLanes = 2;
  PubSocket bus(1 << 14, /*fanin_lanes=*/kLanes);
  auto sub = bus.subscribe(std::string(kLatencyTopic), 1 << 14);
  EnrichmentPool pool(sub, world_->geo, world_->as, kLanes);
  std::array<std::atomic<std::int64_t>, kLanes> last{};
  std::atomic<bool> ordered{true};
  pool.add_sink([&](const EnrichedSample& s) {
    // started_at (== syn_time) carries lane in the low bit and the
    // per-lane sequence number above it; IPs are stripped by design.
    const auto lane = static_cast<std::size_t>(s.started_at.ns & 1);
    const std::int64_t seq = s.started_at.ns >> 1;
    if (seq <= last[lane].exchange(seq)) ordered.store(false);
  });
  pool.start();

  for (std::int64_t i = 1; i <= 3'000; ++i) {
    const auto lane = static_cast<std::size_t>(i % kLanes);
    LatencySample s = sample((100u << 24) + static_cast<std::uint32_t>(i % 4096));
    s.syn_time = Timestamp::from_ns(i * 2 + static_cast<std::int64_t>(lane));
    s.synack_time = s.syn_time + Duration::from_ms(100);
    s.ack_time = s.syn_time + Duration::from_ms(105);
    bus.publish_lane(lane, encode_one(s));
  }
  bus.close_all();
  pool.stop();

  EXPECT_EQ(pool.processed(), 3'000u);
  EXPECT_TRUE(ordered.load());
}

TEST_F(PoolTest, StopWithoutStartIsSafe) {
  PubSocket bus;
  auto sub = bus.subscribe("", 16);
  EnrichmentPool pool(sub, world_->geo, world_->as, 2);
  pool.stop();  // no crash
}

}  // namespace
}  // namespace ruru
