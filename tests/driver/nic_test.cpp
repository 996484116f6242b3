#include "driver/nic.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <thread>

#include "net/packet_builder.hpp"
#include "net/packet_view.hpp"

namespace ruru {
namespace {

std::vector<std::uint8_t> syn_frame(Ipv4Address src, std::uint16_t sp, Ipv4Address dst,
                                    std::uint16_t dp) {
  TcpFrameSpec spec;
  spec.src_ip = src;
  spec.dst_ip = dst;
  spec.src_port = sp;
  spec.dst_port = dp;
  spec.flags = TcpFlags::kSyn;
  return build_tcp_frame(spec);
}

class SimNicTest : public ::testing::Test {
 protected:
  SimNicTest() : pool_(1024, 2048) {}
  Mempool pool_;
};

TEST_F(SimNicTest, InjectAndBurstReceive) {
  NicConfig cfg;
  cfg.num_queues = 1;
  SimNic nic(cfg, pool_);
  const auto frame = syn_frame(Ipv4Address(10, 0, 0, 1), 1000, Ipv4Address(10, 0, 0, 2), 80);
  ASSERT_TRUE(nic.inject(frame, Timestamp::from_ms(5)));
  EXPECT_EQ(nic.stats().rx_packets, 1u);
  EXPECT_EQ(nic.stats().rx_bytes, frame.size());

  std::array<MbufPtr, 32> burst;
  const std::size_t n = nic.rx_burst(0, burst);
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(burst[0]->length(), frame.size());
  EXPECT_EQ(burst[0]->timestamp, Timestamp::from_ms(5));
  EXPECT_EQ(burst[0]->queue_id, 0);
  EXPECT_EQ(std::memcmp(burst[0]->data(), frame.data(), frame.size()), 0);
}

TEST_F(SimNicTest, BothDirectionsLandOnSameQueue) {
  NicConfig cfg;
  cfg.num_queues = 8;
  SimNic nic(cfg, pool_);
  // 200 random flows; SYN direction and reply direction must always
  // match queues thanks to the symmetric RSS key.
  for (int i = 0; i < 200; ++i) {
    const Ipv4Address client(10, 1, 0, static_cast<std::uint8_t>(i));
    const Ipv4Address server(10, 2, 0, static_cast<std::uint8_t>(255 - i));
    const auto sp = static_cast<std::uint16_t>(10'000 + i);
    const auto fwd = syn_frame(client, sp, server, 443);
    const auto rev = syn_frame(server, 443, client, sp);
    EXPECT_EQ(nic.hash_frame(fwd), nic.hash_frame(rev)) << "flow " << i;
  }
}

TEST_F(SimNicTest, AsymmetricKeySplitsDirections) {
  NicConfig cfg;
  cfg.num_queues = 8;
  cfg.rss_key = default_rss_key();
  SimNic nic(cfg, pool_);
  int split = 0;
  for (int i = 0; i < 100; ++i) {
    const Ipv4Address client(10, 1, 0, static_cast<std::uint8_t>(i));
    const Ipv4Address server(10, 2, 0, 1);
    const auto sp = static_cast<std::uint16_t>(10'000 + i);
    if (nic.hash_frame(syn_frame(client, sp, server, 443)) % 8 !=
        nic.hash_frame(syn_frame(server, 443, client, sp)) % 8) {
      ++split;
    }
  }
  EXPECT_GT(split, 50);  // most flows split across queues: broken for Ruru
}

TEST_F(SimNicTest, QueueFullDrops) {
  NicConfig cfg;
  cfg.num_queues = 1;
  cfg.queue_depth = 16;
  SimNic nic(cfg, pool_);
  const auto frame = syn_frame(Ipv4Address(1, 1, 1, 1), 1, Ipv4Address(2, 2, 2, 2), 2);
  int accepted = 0;
  for (int i = 0; i < 40; ++i) {
    if (nic.inject(frame, Timestamp{})) ++accepted;
  }
  EXPECT_EQ(accepted, 16);
  EXPECT_EQ(nic.stats().dropped_queue_full, 24u);
  EXPECT_EQ(nic.stats().rx_packets, 16u);
}

TEST_F(SimNicTest, MempoolExhaustionDrops) {
  Mempool tiny(4, 2048);
  NicConfig cfg;
  cfg.num_queues = 1;
  SimNic nic(cfg, tiny);
  const auto frame = syn_frame(Ipv4Address(1, 1, 1, 1), 1, Ipv4Address(2, 2, 2, 2), 2);
  for (int i = 0; i < 10; ++i) nic.inject(frame, Timestamp{});
  EXPECT_EQ(nic.stats().rx_packets, 4u);
  EXPECT_EQ(nic.stats().dropped_no_mbuf, 6u);
  // Draining the queue frees mbufs for new packets.
  std::array<MbufPtr, 8> burst;
  EXPECT_EQ(nic.rx_burst(0, burst), 4u);
  for (auto& b : burst) b.reset();
  EXPECT_TRUE(nic.inject(frame, Timestamp{}));
}

// An mbuf dropped off the workers (a test, shutdown) returns through the
// pool's locked free list, and the producer's next cache refill hands it
// out again.
TEST_F(SimNicTest, MbufDroppedOffTheWorkersReachesThePool) {
  Mempool tiny(4, 2048);
  NicConfig cfg;
  cfg.num_queues = 1;
  SimNic nic(cfg, tiny);
  const auto frame = syn_frame(Ipv4Address(1, 1, 1, 1), 1, Ipv4Address(2, 2, 2, 2), 2);
  const std::vector<RxFrame> burst(4, RxFrame{frame, Timestamp{}});
  ASSERT_EQ(nic.inject_burst(burst), 4u);
  EXPECT_EQ(tiny.available(), 0u);

  std::array<MbufPtr, 4> rx;
  ASSERT_EQ(nic.rx_burst(0, rx), 4u);
  std::set<const std::uint8_t*> dropped;
  for (auto& m : rx) {
    dropped.insert(m->data());
    m.reset();  // this thread owns no recycle ring
  }
  EXPECT_EQ(tiny.available(), 4u);

  ASSERT_EQ(nic.inject_burst(burst), 4u);
  EXPECT_EQ(tiny.available(), 0u);
  ASSERT_EQ(nic.rx_burst(0, rx), 4u);
  for (const auto& m : rx) EXPECT_EQ(dropped.count(m->data()), 1u);
  EXPECT_EQ(nic.stats().dropped_no_mbuf, 0u);
  EXPECT_EQ(tiny.alloc_failures(), 0u);
}

// A recycle ring whose producer stops draining it fills up; the bursts
// handed back after that go to the pool's free list, recycle() returns
// at once, and destroying the NIC returns every mbuf.
TEST_F(SimNicTest, FullRecycleRingFallsBackToThePool) {
  Mempool pool(64, 2048);
  {
    NicConfig cfg;
    cfg.num_queues = 1;
    cfg.queue_depth = 2;  // recycle ring: 4 slots
    SimNic nic(cfg, pool);
    const auto frame = syn_frame(Ipv4Address(1, 1, 1, 1), 1, Ipv4Address(2, 2, 2, 2), 2);
    const std::vector<RxFrame> two(2, RxFrame{frame, Timestamp{}});
    std::array<MbufPtr, 2> rx;
    for (int round = 0; round < 4; ++round) {
      // One cold refill stocks the cache for all four rounds, so the
      // producer never drains the recycle ring.
      ASSERT_EQ(nic.inject_burst(two), 2u);
      ASSERT_EQ(nic.rx_burst(0, rx), 2u);
      nic.recycle(0, rx);
      for (const auto& m : rx) EXPECT_EQ(m, nullptr);
    }
    // The cold refill took one burst's worth; rounds 3 and 4 found the
    // ring full and returned their 4 mbufs to the pool.
    EXPECT_EQ(pool.available(), pool.capacity() - SimNic::kRxBurst + 4);
  }
  EXPECT_EQ(pool.available(), pool.capacity());
  EXPECT_EQ(pool.alloc_failures(), 0u);
}

TEST_F(SimNicTest, OversizeFrameDropped) {
  Mempool small(8, 64);
  NicConfig cfg;
  cfg.num_queues = 1;
  SimNic nic(cfg, small);
  TcpFrameSpec spec;
  spec.src_ip = Ipv4Address(1, 1, 1, 1);
  spec.dst_ip = Ipv4Address(2, 2, 2, 2);
  spec.payload_length = 100;  // 154-byte frame vs 64-byte buffers
  const auto frame = build_tcp_frame(spec);
  ASSERT_GT(frame.size(), 64u);
  EXPECT_FALSE(nic.inject(frame, Timestamp{}));
  EXPECT_EQ(nic.stats().dropped_oversize, 1u);
}

TEST_F(SimNicTest, NonIpHashesToQueueZero) {
  NicConfig cfg;
  cfg.num_queues = 4;
  SimNic nic(cfg, pool_);
  const auto arp = build_non_ip_frame();
  ASSERT_TRUE(nic.inject(arp, Timestamp{}));
  std::array<MbufPtr, 4> burst;
  EXPECT_EQ(nic.rx_burst(0, burst), 1u);
}

TEST_F(SimNicTest, MalformedIhlHashesToQueueZero) {
  NicConfig cfg;
  cfg.num_queues = 4;
  SimNic nic(cfg, pool_);
  auto frame = syn_frame(Ipv4Address(10, 1, 0, 7), 32000, Ipv4Address(10, 2, 0, 3), 80);
  ASSERT_NE(nic.hash_frame(frame), 0u);  // valid header hashes normally
  // ihl=4 (< 5): the "L4 offset" would sit inside the IP header and the
  // hash would be computed over garbage. Must hash to 0 / queue 0, the
  // same treatment as any other non-TCP frame.
  frame[14] = 0x44;  // version 4, ihl 4
  EXPECT_EQ(nic.hash_frame(frame), 0u);
  ASSERT_TRUE(nic.inject(frame, Timestamp{}));
  std::array<MbufPtr, 4> burst;
  EXPECT_EQ(nic.rx_burst(0, burst), 1u);
}

TEST_F(SimNicTest, InjectBurstMatchesPerFrameInject) {
  NicConfig cfg;
  cfg.num_queues = 4;
  SimNic burst_nic(cfg, pool_);
  Mempool pool2(1024, 2048);
  SimNic frame_nic(cfg, pool2);

  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < 64; ++i) {
    frames.push_back(syn_frame(Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(i)),
                               static_cast<std::uint16_t>(10'000 + i), Ipv4Address(10, 2, 0, 1),
                               443));
  }
  std::vector<RxFrame> burst;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    burst.push_back({frames[i], Timestamp::from_us(static_cast<std::int64_t>(i))});
    ASSERT_TRUE(frame_nic.inject(frames[i], Timestamp::from_us(static_cast<std::int64_t>(i))));
  }
  const auto queued = std::make_unique<bool[]>(frames.size());
  EXPECT_EQ(burst_nic.inject_burst(burst, queued.get()), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) EXPECT_TRUE(queued[i]);
  EXPECT_EQ(burst_nic.stats().rx_packets, frame_nic.stats().rx_packets);
  EXPECT_EQ(burst_nic.stats().rx_bytes, frame_nic.stats().rx_bytes);

  // Same frames land on the same queues with the same metadata.
  for (std::uint16_t q = 0; q < 4; ++q) {
    std::array<MbufPtr, 64> a, b;
    const std::size_t na = burst_nic.rx_burst(q, a);
    const std::size_t nb = frame_nic.rx_burst(q, b);
    ASSERT_EQ(na, nb) << "queue " << q;
    for (std::size_t i = 0; i < na; ++i) {
      EXPECT_EQ(a[i]->rss_hash, b[i]->rss_hash);
      EXPECT_EQ(a[i]->timestamp, b[i]->timestamp);
      EXPECT_EQ(a[i]->length(), b[i]->length());
    }
  }
}

TEST_F(SimNicTest, InjectBurstPartialDropOnFullQueue) {
  NicConfig cfg;
  cfg.num_queues = 1;
  cfg.queue_depth = 16;
  SimNic nic(cfg, pool_);
  const auto frame = syn_frame(Ipv4Address(1, 1, 1, 1), 1, Ipv4Address(2, 2, 2, 2), 2);
  std::vector<RxFrame> burst(40, RxFrame{frame, Timestamp{}});
  const auto queued = std::make_unique<bool[]>(burst.size());
  EXPECT_EQ(nic.inject_burst(burst, queued.get()), 16u);
  EXPECT_EQ(nic.stats().rx_packets, 16u);
  EXPECT_EQ(nic.stats().dropped_queue_full, 24u);
  // The leading 16 queued, the tail dropped — and the flags say which.
  for (std::size_t i = 0; i < 16; ++i) EXPECT_TRUE(queued[i]);
  for (std::size_t i = 16; i < 40; ++i) EXPECT_FALSE(queued[i]);
  // Dropped mbufs returned to the pool: draining lets a new burst in.
  std::array<MbufPtr, 16> rx;
  EXPECT_EQ(nic.rx_burst(0, rx), 16u);
  for (auto& m : rx) m.reset();
  EXPECT_EQ(nic.inject_burst(std::span<const RxFrame>(burst.data(), 4)), 4u);
}

TEST_F(SimNicTest, InjectBurstMempoolExhaustion) {
  Mempool tiny(4, 2048);
  NicConfig cfg;
  cfg.num_queues = 1;
  SimNic nic(cfg, tiny);
  const auto frame = syn_frame(Ipv4Address(1, 1, 1, 1), 1, Ipv4Address(2, 2, 2, 2), 2);
  std::vector<RxFrame> burst(10, RxFrame{frame, Timestamp{}});
  EXPECT_EQ(nic.inject_burst(burst), 4u);
  EXPECT_EQ(nic.stats().dropped_no_mbuf, 6u);
}

TEST_F(SimNicTest, InjectBurstSpreadsAcrossQueues) {
  NicConfig cfg;
  cfg.num_queues = 4;
  SimNic nic(cfg, pool_);
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<RxFrame> burst;
  for (int i = 0; i < 128; ++i) {
    frames.push_back(syn_frame(Ipv4Address(10, 1, static_cast<std::uint8_t>(i), 1),
                               static_cast<std::uint16_t>(20'000 + i),
                               Ipv4Address(10, 2, 0, static_cast<std::uint8_t>(i)), 443));
  }
  for (const auto& f : frames) burst.push_back({f, Timestamp{}});
  EXPECT_EQ(nic.inject_burst(burst), 128u);
  std::size_t total = 0;
  std::size_t busy_queues = 0;
  for (std::uint16_t q = 0; q < 4; ++q) {
    const std::size_t occ = nic.queue_occupancy(q);
    total += occ;
    if (occ > 0) ++busy_queues;
  }
  EXPECT_EQ(total, 128u);
  EXPECT_GT(busy_queues, 1u);  // RSS actually spread the burst
}

TEST_F(SimNicTest, RssHashStoredInMbufMatchesHashFrame) {
  NicConfig cfg;
  cfg.num_queues = 4;
  SimNic nic(cfg, pool_);
  const auto frame = syn_frame(Ipv4Address(10, 1, 0, 7), 32000, Ipv4Address(10, 2, 0, 3), 80);
  const std::uint32_t expected = nic.hash_frame(frame);
  ASSERT_TRUE(nic.inject(frame, Timestamp{}));
  const auto queue = static_cast<std::uint16_t>(expected % 4);
  std::array<MbufPtr, 4> burst;
  ASSERT_EQ(nic.rx_burst(queue, burst), 1u);
  EXPECT_EQ(burst[0]->rss_hash, expected);
  EXPECT_EQ(burst[0]->queue_id, queue);
}

TEST_F(SimNicTest, InjectShardDeliversToItsLane) {
  NicConfig cfg;
  cfg.num_queues = 4;
  SimNic nic(cfg, pool_);
  const auto frame = syn_frame(Ipv4Address(10, 1, 0, 7), 32000, Ipv4Address(10, 2, 0, 3), 80);
  const std::uint16_t q = nic.queue_for(frame);

  const RxFrame rx{frame, Timestamp::from_ms(9)};
  bool queued = false;
  EXPECT_EQ(nic.inject_shard(q, {&rx, 1}, &queued), 1u);
  EXPECT_TRUE(queued);

  std::array<MbufPtr, 4> burst;
  ASSERT_EQ(nic.rx_burst(q, burst), 1u);
  EXPECT_EQ(burst[0]->timestamp, Timestamp::from_ms(9));
  EXPECT_EQ(burst[0]->queue_id, q);
  EXPECT_EQ(nic.lane_stats(q).rx_packets, 1u);
}

TEST_F(SimNicTest, InjectShardDropsMisroutedFrame) {
  NicConfig cfg;
  cfg.num_queues = 4;
  SimNic nic(cfg, pool_);
  const auto frame = syn_frame(Ipv4Address(10, 1, 0, 7), 32000, Ipv4Address(10, 2, 0, 3), 80);
  const std::uint16_t q = nic.queue_for(frame);
  const auto wrong = static_cast<std::uint16_t>((q + 1) % 4);

  const RxFrame rx{frame, Timestamp{}};
  bool queued = true;
  // A frame whose hash steers elsewhere would break the symmetric-RSS
  // worker-affinity guarantee: the lane refuses it.
  EXPECT_EQ(nic.inject_shard(wrong, {&rx, 1}, &queued), 0u);
  EXPECT_FALSE(queued);
  EXPECT_EQ(nic.lane_stats(wrong).dropped_misrouted, 1u);
  std::array<MbufPtr, 4> burst;
  EXPECT_EQ(nic.rx_burst(wrong, burst), 0u);
  EXPECT_EQ(nic.rx_burst(q, burst), 0u);
}

TEST_F(SimNicTest, InjectShardMatchesWholePortStreams) {
  // The same mixed-flow burst through (a) whole-port inject and (b)
  // pre-partitioned lanes must produce identical per-queue streams.
  NicConfig cfg;
  cfg.num_queues = 2;
  SimNic whole(cfg, pool_);
  Mempool pool2(1024, 2048);
  SimNic sharded(cfg, pool2);

  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < 16; ++i) {
    frames.push_back(syn_frame(Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(i)),
                               static_cast<std::uint16_t>(30000 + i), Ipv4Address(10, 2, 0, 1),
                               443));
  }
  std::vector<std::vector<RxFrame>> shards(2);
  std::int64_t t = 0;
  for (const auto& f : frames) {
    const Timestamp ts = Timestamp::from_ns(++t);
    ASSERT_TRUE(whole.inject(f, ts));
    shards[sharded.queue_for(f)].push_back({f, ts});
  }
  for (std::uint16_t q = 0; q < 2; ++q) {
    ASSERT_EQ(sharded.inject_shard(q, shards[q]), shards[q].size());
  }

  for (std::uint16_t q = 0; q < 2; ++q) {
    std::array<MbufPtr, 32> a;
    std::array<MbufPtr, 32> b;
    const std::size_t na = whole.rx_burst(q, a);
    const std::size_t nb = sharded.rx_burst(q, b);
    ASSERT_EQ(na, nb) << "queue " << q;
    for (std::size_t i = 0; i < na; ++i) {
      EXPECT_EQ(a[i]->timestamp, b[i]->timestamp);
      EXPECT_EQ(a[i]->rss_hash, b[i]->rss_hash);
      ASSERT_EQ(a[i]->length(), b[i]->length());
      EXPECT_EQ(std::memcmp(a[i]->data(), b[i]->data(), a[i]->length()), 0);
    }
  }
}

TEST_F(SimNicTest, StatsTotalsMergePortAndLanes) {
  NicConfig cfg;
  cfg.num_queues = 2;
  SimNic nic(cfg, pool_);
  const auto f1 = syn_frame(Ipv4Address(10, 1, 0, 1), 30001, Ipv4Address(10, 2, 0, 1), 443);
  const auto f2 = syn_frame(Ipv4Address(10, 1, 0, 2), 30002, Ipv4Address(10, 2, 0, 1), 443);

  ASSERT_TRUE(nic.inject(f1, Timestamp{}));  // whole-port path
  const RxFrame rx{f2, Timestamp{}};
  ASSERT_EQ(nic.inject_shard(nic.queue_for(f2), {&rx, 1}), 1u);  // lane path

  const NicStats totals = nic.stats_totals();
  EXPECT_EQ(totals.rx_packets, 2u);
  EXPECT_EQ(totals.rx_bytes, f1.size() + f2.size());
}

TEST_F(SimNicTest, WaitRxReturnsAtOnceWhenTheQueueHoldsFrames) {
  NicConfig cfg;
  cfg.num_queues = 1;
  SimNic nic(cfg, pool_);
  ASSERT_TRUE(nic.inject(syn_frame(Ipv4Address(10, 0, 0, 1), 1000, Ipv4Address(10, 0, 0, 2), 80),
                         Timestamp{}));
  EXPECT_EQ(nic.wait_rx(0, std::chrono::seconds(10)), ParkResult::kReady);
}

// Both producer topologies ring the queue they pushed to: a parked
// consumer wakes long before its 10 s timeout.
TEST_F(SimNicTest, InjectRingsAParkedQueue) {
  NicConfig cfg;
  cfg.num_queues = 2;
  SimNic nic(cfg, pool_);
  const auto frame = syn_frame(Ipv4Address(10, 1, 0, 7), 30007, Ipv4Address(10, 2, 0, 1), 443);
  const std::uint16_t q = nic.queue_for(frame);
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "inject_shard" : "inject_burst");
    std::atomic<bool> running{false};
    ParkResult result = ParkResult::kReady;
    std::thread consumer([&] {
      running.store(true);
      result = nic.wait_rx(q, std::chrono::seconds(10));
    });
    while (!running.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let it sleep
    const auto t0 = std::chrono::steady_clock::now();
    const RxFrame rx{frame, Timestamp{}};
    EXPECT_EQ(sharded ? nic.inject_shard(q, {&rx, 1}) : nic.inject_burst({&rx, 1}), 1u);
    consumer.join();
    EXPECT_NE(result, ParkResult::kTimedOut);
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
    std::array<MbufPtr, 32> burst;
    EXPECT_EQ(nic.rx_burst(q, burst), 1u);
  }
}

}  // namespace
}  // namespace ruru
