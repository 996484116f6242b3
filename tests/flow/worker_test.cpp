#include "flow/worker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "net/packet_builder.hpp"

namespace ruru {
namespace {

class WorkerTest : public ::testing::Test {
 protected:
  WorkerTest() : pool_(4096, 2048) {
    NicConfig cfg;
    cfg.num_queues = 1;
    nic_ = std::make_unique<SimNic>(cfg, pool_);
  }

  void inject_handshake(Ipv4Address client, std::uint16_t cport, Timestamp t0, Duration external,
                        Duration internal) {
    TcpFrameSpec syn;
    syn.src_ip = client;
    syn.dst_ip = server_;
    syn.src_port = cport;
    syn.dst_port = 443;
    syn.seq = 100;
    syn.flags = TcpFlags::kSyn;
    nic_->inject(build_tcp_frame(syn), t0);

    TcpFrameSpec synack;
    synack.src_ip = server_;
    synack.dst_ip = client;
    synack.src_port = 443;
    synack.dst_port = cport;
    synack.seq = 500;
    synack.ack = 101;
    synack.flags = TcpFlags::kSyn | TcpFlags::kAck;
    nic_->inject(build_tcp_frame(synack), t0 + external);

    TcpFrameSpec ack;
    ack.src_ip = client;
    ack.dst_ip = server_;
    ack.src_port = cport;
    ack.dst_port = 443;
    ack.seq = 101;
    ack.ack = 501;
    ack.flags = TcpFlags::kAck;
    nic_->inject(build_tcp_frame(ack), t0 + external + internal);
  }

  /// A pure-ACK data segment (post-handshake traffic) at time `t_ms`.
  void inject_data_segment(Ipv4Address src, std::uint16_t sp, Ipv4Address dst, std::uint16_t dp,
                           std::int64_t t_ms) {
    TcpFrameSpec data;
    data.src_ip = src;
    data.dst_ip = dst;
    data.src_port = sp;
    data.dst_port = dp;
    data.seq = 101;
    data.ack = 501;
    data.flags = TcpFlags::kAck;
    data.payload_length = 64;
    nic_->inject(build_tcp_frame(data), Timestamp::from_ms(t_ms));
  }

  Mempool pool_;
  std::unique_ptr<SimNic> nic_;
  Ipv4Address server_{Ipv4Address(10, 2, 0, 1)};
};

TEST_F(WorkerTest, PollProcessesHandshake) {
  std::vector<LatencySample> samples;
  QueueWorker worker(*nic_, 0, 1024, [&](const LatencySample& s) { samples.push_back(s); });
  inject_handshake(Ipv4Address(10, 1, 0, 1), 40'000, Timestamp::from_ms(0),
                   Duration::from_ms(128), Duration::from_ms(5));
  while (worker.poll_once() != 0) {
  }
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].external().ns, Duration::from_ms(128).ns);
  EXPECT_EQ(samples[0].internal().ns, Duration::from_ms(5).ns);
  EXPECT_EQ(worker.stats().packets, 3u);
  EXPECT_EQ(worker.stats().parse_status[0], 3u);  // all kOk
}

TEST_F(WorkerTest, CountsParseStatuses) {
  QueueWorker worker(*nic_, 0, 1024, nullptr);
  nic_->inject(build_non_ip_frame(), Timestamp{});
  nic_->inject(build_udp_frame(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 1, 2, 10),
               Timestamp{});
  while (worker.poll_once() != 0) {
  }
  EXPECT_EQ(worker.stats().parse_status[static_cast<int>(ParseStatus::kNotIp)], 1u);
  EXPECT_EQ(worker.stats().parse_status[static_cast<int>(ParseStatus::kNotTcp)], 1u);
}

TEST_F(WorkerTest, SynSinkFiresPerSyn) {
  std::vector<std::pair<Timestamp, Ipv4Address>> syns;
  QueueWorker worker(*nic_, 0, 1024, nullptr);
  worker.set_syn_sink([&](Timestamp t, Ipv4Address server) { syns.emplace_back(t, server); });
  inject_handshake(Ipv4Address(10, 1, 0, 1), 40'000, Timestamp::from_ms(10),
                   Duration::from_ms(100), Duration::from_ms(5));
  while (worker.poll_once() != 0) {
  }
  ASSERT_EQ(syns.size(), 1u);  // only the SYN, not SYN-ACK/ACK
  EXPECT_EQ(syns[0].first.ns, Timestamp::from_ms(10).ns);
  EXPECT_EQ(syns[0].second, server_);
}

// The batched hook gets a burst's SYNs in one call, in arrival order,
// and never after the completions they precede: a mid-burst batch flush
// hands the SYNs staged so far over first.
TEST_F(WorkerTest, SynBatchSinkTakesABurstsSynsAheadOfTheirCompletions) {
  for (const std::size_t batch_size : {kMaxLatencyBatch, std::size_t{1}}) {
    SCOPED_TRACE(testing::Message() << "batch_size " << batch_size);
    std::vector<std::string> log;  // "S<n>" per SYN, "C<n>" per completion
    std::size_t syn_calls = 0;
    QueueWorker worker(*nic_, 0, 1024, nullptr);
    worker.set_syn_batch_sink([&](std::span<const SynEvent> syns) {
      ++syn_calls;
      for (const SynEvent& e : syns) log.push_back("S" + std::to_string(e.time.ns / 1'000'000));
    });
    worker.set_batch_sink(
        [&](std::span<const LatencySample> samples) {
          for (const LatencySample& s : samples) {
            log.push_back("C" + std::to_string(s.syn_time.ns / 1'000'000));
          }
        },
        batch_size);
    for (int i = 0; i < 8; ++i) {  // 24 frames: one burst
      inject_handshake(Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(i + 1)),
                       static_cast<std::uint16_t>(33'000 + i), Timestamp::from_ms(i),
                       Duration::from_us(10), Duration::from_us(10));
    }
    ASSERT_EQ(worker.poll_once(), 24u);
    EXPECT_EQ(worker.poll_once(), 0u);  // the idle flush delivers the rest

    ASSERT_EQ(log.size(), 16u);
    std::vector<std::string> syns;
    for (const auto& e : log) {
      if (e[0] == 'S') syns.push_back(e);
    }
    ASSERT_EQ(syns.size(), 8u);
    for (int i = 0; i < 8; ++i) {
      const std::string n = std::to_string(i);
      EXPECT_EQ(syns[static_cast<std::size_t>(i)], "S" + n);  // arrival order
      const auto syn = std::find(log.begin(), log.end(), "S" + n);
      const auto done = std::find(log.begin(), log.end(), "C" + n);
      EXPECT_LT(syn, done) << "handshake " << n;
    }
    if (batch_size == kMaxLatencyBatch) {
      EXPECT_EQ(syn_calls, 1u);  // one call per burst
    }
  }
}

TEST_F(WorkerTest, RunDrainsOnStop) {
  std::atomic<int> samples{0};
  QueueWorker worker(*nic_, 0, 1024, [&](const LatencySample&) { samples.fetch_add(1); });

  std::atomic<bool> stop{false};
  std::thread t([&] { worker.run(stop); });

  for (int i = 0; i < 50; ++i) {
    inject_handshake(Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(i + 1)),
                     static_cast<std::uint16_t>(20'000 + i), Timestamp::from_ms(i * 10),
                     Duration::from_ms(100), Duration::from_ms(5));
  }
  stop.store(true);
  t.join();
  // run() drains the queue after stop: all 50 handshakes measured.
  EXPECT_EQ(samples.load(), 50);
}

TEST_F(WorkerTest, BatchSinkFlushesWhenFull) {
  std::vector<std::size_t> flush_sizes;
  QueueWorker worker(*nic_, 0, 1024, nullptr);
  worker.set_batch_sink(
      [&](std::span<const LatencySample> samples) { flush_sizes.push_back(samples.size()); },
      /*batch_size=*/2);
  for (int i = 0; i < 5; ++i) {
    inject_handshake(Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(i + 1)),
                     static_cast<std::uint16_t>(30'000 + i), Timestamp::from_ms(i),
                     Duration::from_ms(100), Duration::from_ms(5));
  }
  while (worker.poll_once() != 0) {
  }
  // 5 samples at batch=2: two full flushes, then the empty poll flushes
  // the remainder (end-of-burst idle).
  ASSERT_EQ(flush_sizes.size(), 3u);
  EXPECT_EQ(flush_sizes[0], 2u);
  EXPECT_EQ(flush_sizes[1], 2u);
  EXPECT_EQ(flush_sizes[2], 1u);
  EXPECT_EQ(worker.stats().batch_flushes, 3u);
  EXPECT_EQ(worker.stats().batched_samples, 5u);
}

TEST_F(WorkerTest, BatchSinkIdleFlushDeliversPartialBatch) {
  std::vector<LatencySample> seen;
  QueueWorker worker(*nic_, 0, 1024, nullptr);
  worker.set_batch_sink(
      [&](std::span<const LatencySample> samples) {
        seen.insert(seen.end(), samples.begin(), samples.end());
      },
      /*batch_size=*/64);
  inject_handshake(Ipv4Address(10, 1, 0, 1), 40'000, Timestamp::from_ms(0),
                   Duration::from_ms(128), Duration::from_ms(5));
  while (worker.poll_once() != 0) {
  }
  // Far below batch_size, but the empty poll must not sit on the sample.
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].external().ns, Duration::from_ms(128).ns);
}

TEST_F(WorkerTest, BatchSinkLingerFlushesOldSamples) {
  std::vector<std::size_t> flush_sizes;
  QueueWorker worker(*nic_, 0, 1024, nullptr);
  worker.set_batch_sink(
      [&](std::span<const LatencySample> samples) { flush_sizes.push_back(samples.size()); },
      /*batch_size=*/64, /*linger=*/Duration::from_ms(10));
  // Two completions 50 ms apart in capture time, processed in one burst:
  // the second sample's timestamp exceeds the linger and forces a flush
  // even though the batch is nowhere near full.
  inject_handshake(Ipv4Address(10, 1, 0, 1), 40'000, Timestamp::from_ms(0),
                   Duration::from_ms(1), Duration::from_ms(1));
  inject_handshake(Ipv4Address(10, 1, 0, 2), 40'001, Timestamp::from_ms(50),
                   Duration::from_ms(1), Duration::from_ms(1));
  while (worker.poll_once() != 0) {
  }
  ASSERT_FALSE(flush_sizes.empty());
  // The linger flush fired inside the burst (2 samples together), not
  // only at the trailing empty poll.
  EXPECT_EQ(flush_sizes[0], 2u);
  EXPECT_EQ(worker.stats().batched_samples, 2u);
}

TEST_F(WorkerTest, BatchSizeOneMatchesPerSampleBehaviour) {
  std::vector<std::size_t> flush_sizes;
  std::vector<LatencySample> per_sample;
  QueueWorker worker(*nic_, 0, 1024,
                     [&](const LatencySample& s) { per_sample.push_back(s); });
  worker.set_batch_sink(
      [&](std::span<const LatencySample> samples) { flush_sizes.push_back(samples.size()); },
      /*batch_size=*/1);
  for (int i = 0; i < 3; ++i) {
    inject_handshake(Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(i + 1)),
                     static_cast<std::uint16_t>(31'000 + i), Timestamp::from_ms(i),
                     Duration::from_ms(100), Duration::from_ms(5));
  }
  while (worker.poll_once() != 0) {
  }
  // batch=1: every sample flushes alone, and the per-sample sink still
  // fires alongside the batch sink.
  ASSERT_EQ(flush_sizes.size(), 3u);
  for (const auto n : flush_sizes) EXPECT_EQ(n, 1u);
  EXPECT_EQ(per_sample.size(), 3u);
}

TEST_F(WorkerTest, RunFlushesResidualBatchOnStop) {
  std::atomic<std::uint64_t> samples{0};
  QueueWorker worker(*nic_, 0, 1024, nullptr);
  worker.set_batch_sink(
      [&](std::span<const LatencySample> s) {
        samples.fetch_add(s.size(), std::memory_order_relaxed);
      },
      /*batch_size=*/kMaxLatencyBatch);  // never fills: only the shutdown flush
  std::atomic<bool> stop{false};
  std::thread t([&] { worker.run(stop); });
  for (int i = 0; i < 20; ++i) {
    inject_handshake(Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(i + 1)),
                     static_cast<std::uint16_t>(32'000 + i), Timestamp::from_ms(i * 10),
                     Duration::from_ms(100), Duration::from_ms(5));
  }
  stop.store(true);
  t.join();
  EXPECT_EQ(samples.load(), 20u);  // nothing stranded in the accumulator
}

TEST_F(WorkerTest, FastPathSkipsEstablishedDataSegments) {
  std::vector<LatencySample> samples;
  QueueWorker worker(*nic_, 0, 1024, [&](const LatencySample& s) { samples.push_back(s); });
  const Ipv4Address client(10, 1, 0, 1);
  inject_handshake(client, 40'000, Timestamp::from_ms(0), Duration::from_ms(128),
                   Duration::from_ms(5));
  // Established-flow data segments: pure ACKs with payload, both
  // directions. None of them can change tracker state.
  for (int i = 0; i < 10; ++i) {
    inject_data_segment(client, 40'000, server_, 443, 200 + i);
    inject_data_segment(server_, 443, client, 40'000, 600 + i);
  }
  while (worker.poll_once() != 0) {
  }
  // The sample is intact: the handshake itself never takes the fast path.
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].external().ns, Duration::from_ms(128).ns);
  // Synthetic-trace invariant: skips == packets - handshake packets.
  EXPECT_EQ(worker.stats().packets, 23u);
  EXPECT_EQ(worker.stats().fast_path_skips, 20u);
  std::uint64_t classified = 0;
  for (const auto& c : worker.stats().parse_status) classified += c;
  EXPECT_EQ(classified, 3u);  // only the handshake hit the full parser
}

TEST_F(WorkerTest, FastPathDisabledParsesEverything) {
  std::vector<LatencySample> samples;
  QueueWorker worker(*nic_, 0, 1024, [&](const LatencySample& s) { samples.push_back(s); });
  worker.set_fast_path(false);
  const Ipv4Address client(10, 1, 0, 1);
  inject_handshake(client, 40'000, Timestamp::from_ms(0), Duration::from_ms(128),
                   Duration::from_ms(5));
  for (int i = 0; i < 10; ++i) {
    inject_data_segment(client, 40'000, server_, 443, 200 + i);
  }
  while (worker.poll_once() != 0) {
  }
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(worker.stats().fast_path_skips, 0u);
  std::uint64_t classified = 0;
  for (const auto& c : worker.stats().parse_status) classified += c;
  EXPECT_EQ(classified, worker.stats().packets);
}

TEST_F(WorkerTest, FastPathNeverSkipsSynFinRst) {
  QueueWorker worker(*nic_, 0, 1024, nullptr);
  // All on untracked flows — flag-carrying segments must still reach the
  // full parser (a SYN opens a flow; FIN/RST could tear one down).
  TcpFrameSpec fin;
  fin.src_ip = Ipv4Address(10, 9, 0, 1);
  fin.dst_ip = server_;
  fin.src_port = 50'000;
  fin.dst_port = 443;
  fin.flags = TcpFlags::kFin | TcpFlags::kAck;
  nic_->inject(build_tcp_frame(fin), Timestamp{});
  TcpFrameSpec rst = fin;
  rst.src_port = 50'001;
  rst.flags = TcpFlags::kRst;
  nic_->inject(build_tcp_frame(rst), Timestamp{});
  while (worker.poll_once() != 0) {
  }
  EXPECT_EQ(worker.stats().packets, 2u);
  EXPECT_EQ(worker.stats().fast_path_skips, 0u);
  EXPECT_EQ(worker.stats().parse_status[0], 2u);  // both fully parsed (kOk)
}

TEST_F(WorkerTest, FastPathDoesNotSkipMidHandshakePackets) {
  // A pure ACK on a flow the tracker is mid-handshake on must go through
  // the full parser — it is the packet that completes the measurement.
  std::vector<LatencySample> samples;
  QueueWorker worker(*nic_, 0, 1024, [&](const LatencySample& s) { samples.push_back(s); });
  inject_handshake(Ipv4Address(10, 1, 0, 9), 41'000, Timestamp::from_ms(0), Duration::from_ms(80),
                   Duration::from_ms(3));
  while (worker.poll_once() != 0) {
  }
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(worker.stats().fast_path_skips, 0u);  // nothing skippable in a bare handshake
}

TEST_F(WorkerTest, HandshakeOnlyLookupReclaimsStaleEntry) {
  // In-flow kernel off: a data segment's fast-path lookup is the same
  // mutating lookup the in-flow mode runs, so a verified entry gone stale
  // is reclaimed on the way instead of waiting for the sweep.
  constexpr std::size_t kCapacity = 1 << 16;  // 4096 groups; a burst sweeps 4
  const Ipv4Address client(10, 1, 0, 1);
  for (const auto kernel : {QueueWorker::LoopKernel::kVector, QueueWorker::LoopKernel::kScalar}) {
    SCOPED_TRACE(kernel == QueueWorker::LoopKernel::kVector ? "vector" : "scalar");
    QueueWorker worker(*nic_, 0, kCapacity, nullptr, Duration::from_sec(2.0));
    worker.set_loop_kernel(kernel);

    TcpFrameSpec syn;
    syn.src_ip = client;
    syn.dst_ip = server_;
    syn.src_port = 40'000;
    syn.dst_port = 443;
    syn.seq = 100;
    syn.flags = TcpFlags::kSyn;
    const auto syn_frame = build_tcp_frame(syn);
    nic_->inject(syn_frame, Timestamp::from_ms(0));
    ASSERT_EQ(worker.poll_once(), 1u);
    ASSERT_EQ(worker.tracker().table().size(), 1u);

    // Precondition: the SYN's group lies past the groups the two bursts'
    // sweeps examine, so only the lookup can reclaim it.
    PacketView view;
    ASSERT_EQ(parse_packet(syn_frame, view), ParseStatus::kOk);
    const FlowTable::FlowClassify c = worker.tracker().table().classify(
        FlowKey::from(view.tuple()), nic_->hash_frame(syn_frame), Timestamp::from_ms(0));
    ASSERT_EQ(c.kind, FlowTable::ClassifyKind::kLive);
    ASSERT_GE(c.slot / kFlowGroupWidth, 2 * QueueWorker::kSweepGroupsPerBurst);

    inject_data_segment(client, 40'000, server_, 443, 10'000);  // past stale_after
    ASSERT_EQ(worker.poll_once(), 1u);
    EXPECT_EQ(worker.stats().fast_path_skips, 1u);
    EXPECT_EQ(worker.tracker().table().stats().evictions_stale, 1u);
    EXPECT_EQ(worker.tracker().table().size(), 0u);
  }
}

// The idle policy end to end: a worker with nothing to do parks, wakes
// for one injected frame, and still sees its stop flag promptly.
TEST_F(WorkerTest, IdleWorkerParksThenProcessesAFrameAndStopsPromptly) {
  using Clock = std::chrono::steady_clock;
  QueueWorker worker(*nic_, 0, 1024, nullptr);
  std::atomic<bool> stop{false};
  std::thread t([&] { worker.run(stop); });

  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (worker.stats().parks.load() == 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(worker.stats().parks.load(), 0u);

  TcpFrameSpec syn;
  syn.src_ip = Ipv4Address(10, 1, 0, 1);
  syn.dst_ip = server_;
  syn.src_port = 20'000;
  syn.dst_port = 443;
  syn.flags = TcpFlags::kSyn;
  EXPECT_TRUE(nic_->inject(build_tcp_frame(syn), Timestamp::from_ms(1)));
  while (worker.stats().packets.load() == 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(worker.stats().packets.load(), 1u);

  const auto t0 = Clock::now();
  stop.store(true);
  t.join();
  EXPECT_LT(Clock::now() - t0, std::chrono::milliseconds(50));
  // Parks are not empty polls: every park follows an empty poll, and the
  // two counters stay apart.
  EXPECT_GE(worker.stats().empty_polls.load(), worker.stats().parks.load());
}

// Threaded replay under both producer topologies, with a pool smaller
// than the replay so mbufs must circulate: workers hand every burst back
// on their recycle rings while the producers refill from them.  Every
// frame is processed, and once the workers stop and the NIC is gone
// every mbuf is back on the pool's free list.
TEST(WorkerRecycle, ThreadedReplayReturnsEveryMbufToThePool) {
  constexpr std::uint16_t kQueues = 2;
  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < 2000; ++i) {
    TcpFrameSpec spec;
    spec.src_ip = Ipv4Address(10, 1, static_cast<std::uint8_t>(i >> 8), static_cast<std::uint8_t>(i));
    spec.dst_ip = Ipv4Address(10, 2, 0, 1);
    spec.src_port = static_cast<std::uint16_t>(20'000 + i);
    spec.dst_port = 443;
    spec.flags = TcpFlags::kSyn;
    frames.push_back(build_tcp_frame(spec));
    std::swap(spec.src_ip, spec.dst_ip);
    std::swap(spec.src_port, spec.dst_port);
    spec.flags = TcpFlags::kSyn | TcpFlags::kAck;
    frames.push_back(build_tcp_frame(spec));
    spec.flags = TcpFlags::kAck;
    spec.payload_length = 64;
    frames.push_back(build_tcp_frame(spec));
  }
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "inject_shard lanes" : "inject_burst");
    Mempool pool(1024, 2048);
    std::uint64_t queued = 0;
    std::uint64_t processed = 0;
    {
      NicConfig cfg;
      cfg.num_queues = kQueues;
      cfg.queue_depth = 64;
      SimNic nic(cfg, pool);
      std::vector<std::unique_ptr<QueueWorker>> workers;
      for (std::uint16_t q = 0; q < kQueues; ++q) {
        workers.push_back(std::make_unique<QueueWorker>(nic, q, 8192, nullptr));
      }
      std::atomic<bool> stop{false};
      std::vector<std::thread> threads;
      for (auto& w : workers) threads.emplace_back([&w, &stop] { w->run(stop); });

      // Lossless: a refused frame retries on its own queue's lane, the
      // way the benchmark's closed loop does.
      const auto retry = [&nic](const RxFrame& f) {
        const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (nic.inject_shard(nic.queue_for(f.data), {&f, 1}) == 0) {
          if (std::chrono::steady_clock::now() > give_up) return false;
          std::this_thread::yield();
        }
        return true;
      };
      const auto feed = [&](std::span<const RxFrame> all, std::optional<std::uint16_t> lane) {
        bool ok[SimNic::kRxBurst];
        for (std::size_t off = 0; off < all.size(); off += SimNic::kRxBurst) {
          const auto burst = all.subspan(off, std::min(SimNic::kRxBurst, all.size() - off));
          if (lane) {
            nic.inject_shard(*lane, burst, ok);
          } else {
            nic.inject_burst(burst, ok);
          }
          for (std::size_t i = 0; i < burst.size(); ++i) {
            if (!ok[i]) {
              EXPECT_TRUE(retry(burst[i]));
            }
          }
        }
      };
      std::vector<std::vector<RxFrame>> by_queue(kQueues);
      std::vector<RxFrame> all;
      for (std::size_t i = 0; i < frames.size(); ++i) {
        const RxFrame f{frames[i], Timestamp::from_us(static_cast<std::int64_t>(i))};
        all.push_back(f);
        by_queue[nic.queue_for(f.data)].push_back(f);
      }
      if (sharded) {
        std::vector<std::thread> lanes;
        for (std::uint16_t q = 0; q < kQueues; ++q) {
          lanes.emplace_back([&feed, &by_queue, q] { feed(by_queue[q], q); });
        }
        for (auto& t : lanes) t.join();
      } else {
        feed(all, std::nullopt);
      }
      stop.store(true);
      for (auto& t : threads) t.join();
      queued = nic.stats_totals().rx_packets;
      for (const auto& w : workers) processed += w->stats().packets;
    }
    EXPECT_EQ(queued, frames.size());
    EXPECT_EQ(processed, queued);
    EXPECT_EQ(pool.available(), pool.capacity());
  }
}

TEST_F(WorkerTest, EmptyPollsAreCounted) {
  QueueWorker worker(*nic_, 0, 1024, nullptr);
  EXPECT_EQ(worker.poll_once(), 0u);
  EXPECT_EQ(worker.stats().empty_polls, 1u);
  EXPECT_EQ(worker.stats().polls, 1u);
}

}  // namespace
}  // namespace ruru
