#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/histogram.hpp"

namespace ruru::obs {
namespace {

TEST(MetricsRegistryTest, DefaultHandlesAreInertNoOps) {
  HistogramHandle h;
  EXPECT_FALSE(h.attached());
  h.record(std::int64_t{42});  // must not crash
  h.record_shared(std::int64_t{42});
}

TEST(MetricsRegistryTest, SameNameSameShardYieldsSameCell) {
  MetricsRegistry reg;
  HistogramHandle a = reg.histogram("x");
  HistogramHandle b = reg.histogram("x");
  a.record(std::int64_t{1});
  b.record(std::int64_t{2});
  EXPECT_EQ(reg.metric_count(), 1u);
  const MetricsSnapshot snap = reg.snapshot(Timestamp{});
  const HistogramStats* stats = snap.histogram("x");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->count, 2u);
  EXPECT_EQ(stats->sum, 3);
}

TEST(MetricsRegistryTest, CallbackMetricsArePolledAtSnapshotTime) {
  MetricsRegistry reg;
  std::uint64_t live = 3;
  reg.register_counter_fn("cb.count", [&live] { return live; });
  reg.register_gauge_fn("cb.gauge", [&live] { return static_cast<double>(live) * 2.0; });
  EXPECT_EQ(*reg.snapshot(Timestamp{}).counter("cb.count"), 3u);
  live = 9;
  const MetricsSnapshot snap = reg.snapshot(Timestamp{});
  EXPECT_EQ(*snap.counter("cb.count"), 9u);
  EXPECT_DOUBLE_EQ(*snap.gauge("cb.gauge"), 18.0);
  EXPECT_EQ(snap.counter_or("missing", 7), 7u);
  EXPECT_EQ(snap.gauge("missing"), nullptr);
}

TEST(MetricsHistogramTest, SingleShardMatchesReferenceHistogram) {
  MetricsRegistry reg;
  HistogramHandle h = reg.histogram("lat");
  Histogram reference;
  for (std::int64_t v : {1, 5, 100, 1000, 12345, 999999, 77}) {
    h.record(v);
    reference.record(v);
  }
  const MetricsSnapshot snap = reg.snapshot(Timestamp{});
  const HistogramStats* stats = snap.histogram("lat");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->count, reference.count());
  EXPECT_EQ(stats->min, reference.min());
  EXPECT_EQ(stats->max, reference.max());
  EXPECT_DOUBLE_EQ(stats->mean(), reference.mean());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(stats->percentile(q), reference.percentile(q)) << "q=" << q;
  }
}

TEST(MetricsHistogramTest, MergeAcrossShardsStaysWithinQuantileErrorBound) {
  MetricsRegistry reg;
  constexpr int kShards = 4;
  std::vector<HistogramHandle> handles;
  for (int s = 0; s < kShards; ++s) handles.push_back(reg.histogram("lat", s));

  // 1..100000 ns round-robin across shards: exact quantiles are known,
  // so the merged histogram's bucket representatives must land within
  // the log-linear error bound (1/32 minor buckets -> <= ~3.2%).
  constexpr std::int64_t kN = 100'000;
  for (std::int64_t v = 1; v <= kN; ++v) {
    handles[static_cast<std::size_t>(v % kShards)].record(v);
  }
  const MetricsSnapshot snap = reg.snapshot(Timestamp{});
  const HistogramStats* stats = snap.histogram("lat");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->count, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(stats->min, 1);
  EXPECT_EQ(stats->max, kN);
  EXPECT_NEAR(stats->mean(), static_cast<double>(kN + 1) / 2.0, 0.5);
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    const double exact = q * static_cast<double>(kN);
    const double got = static_cast<double>(stats->percentile(q));
    EXPECT_NEAR(got, exact, exact * 0.032) << "q=" << q;
  }
}

TEST(MetricsHistogramTest, SharedRecordingKeepsExactCounts) {
  MetricsRegistry reg;
  HistogramHandle h = reg.histogram("shared");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record_shared(static_cast<std::int64_t>(t * kPerThread + i + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  const MetricsSnapshot snap = reg.snapshot(Timestamp{});
  const HistogramStats* stats = snap.histogram("shared");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->count, static_cast<std::uint64_t>(kThreads * kPerThread));
  constexpr std::int64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(stats->sum, kTotal * (kTotal + 1) / 2);
}

// The TSan gate: per-shard writers plus a hammering snapshot reader.
// Counts must balance exactly once the writers join (single-writer
// shards lose nothing), and no torn/raced state may be observed.  The
// counter is a callback over the writers' own cells, the way the
// pipeline exposes its stage stats.
TEST(MetricsConcurrencyTest, ConcurrentIncrementAndSnapshotIsRaceFreeAndExact) {
  MetricsRegistry reg;
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 50'000;
  std::array<std::atomic<std::uint64_t>, kWriters> ops{};
  reg.register_counter_fn("ops", [&ops] {
    std::uint64_t total = 0;
    for (const auto& cell : ops) total += cell.load(std::memory_order_relaxed);
    return total;
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    std::atomic<std::uint64_t>& cell = ops[static_cast<std::size_t>(w)];
    HistogramHandle h = reg.histogram("lat", static_cast<std::size_t>(w));
    writers.emplace_back([&cell, h] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        cell.store(cell.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
        h.record(static_cast<std::int64_t>(i % 1000 + 1));
      }
    });
  }

  std::atomic<bool> stop{false};
  std::thread reader([&reg, &stop] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const MetricsSnapshot snap = reg.snapshot(Timestamp{});
      const std::uint64_t now = snap.counter_or("ops");
      EXPECT_GE(now, last);  // counters are monotone
      last = now;
      const HistogramStats* h = snap.histogram("lat");
      ASSERT_NE(h, nullptr);
      EXPECT_LE(h->count, kWriters * kPerWriter);
    }
  });

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  const MetricsSnapshot final_snap = reg.snapshot(Timestamp{});
  EXPECT_EQ(final_snap.counter_or("ops"), kWriters * kPerWriter);
  EXPECT_EQ(final_snap.histogram("lat")->count, kWriters * kPerWriter);
}

}  // namespace
}  // namespace ruru::obs
