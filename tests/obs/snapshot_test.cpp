#include "obs/snapshot_timer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

namespace ruru::obs {
namespace {

/// Captures every (snapshot, delta) pair the timer fans out.
class RecordingExporter final : public MetricsExporter {
 public:
  void export_snapshot(const MetricsSnapshot& snap, const SnapshotDelta& delta) override {
    snapshots.push_back(snap);
    deltas.push_back(delta);
  }
  [[nodiscard]] std::string_view name() const override { return "recording"; }

  std::vector<MetricsSnapshot> snapshots;
  std::vector<SnapshotDelta> deltas;
};

TEST(SnapshotDeltaTest, DeltaAndRateMathAcrossTwoIntervals) {
  MetricsRegistry reg;
  std::atomic<std::uint64_t> pkts{0};
  reg.register_counter_fn("pkts", [&pkts] { return pkts.load(); });
  HistogramHandle h = reg.histogram("lat");

  pkts += 100;
  h.record(std::int64_t{10});
  const MetricsSnapshot s1 = reg.snapshot(Timestamp::from_sec(1.0));

  pkts += 150;
  h.record(std::int64_t{20});
  h.record(std::int64_t{30});
  const MetricsSnapshot s2 = reg.snapshot(Timestamp::from_sec(3.0));

  const SnapshotDelta d = SnapshotDelta::between(s1, s2);
  EXPECT_DOUBLE_EQ(d.interval_s, 2.0);
  const MetricRate* r = d.counter("pkts");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->delta, 150u);
  EXPECT_DOUBLE_EQ(r->per_sec, 75.0);
  ASSERT_EQ(d.histogram_counts.size(), 1u);
  EXPECT_EQ(d.histogram_counts[0].delta, 2u);  // two new records
  EXPECT_DOUBLE_EQ(d.histogram_counts[0].per_sec, 1.0);

  // Third interval: nothing recorded -> zero deltas, zero rates.
  const MetricsSnapshot s3 = reg.snapshot(Timestamp::from_sec(4.0));
  const SnapshotDelta d2 = SnapshotDelta::between(s2, s3);
  EXPECT_EQ(d2.counter("pkts")->delta, 0u);
  EXPECT_DOUBLE_EQ(d2.counter("pkts")->per_sec, 0.0);
}

TEST(SnapshotDeltaTest, CounterResetNeverUnderflows) {
  MetricsSnapshot prev;
  prev.taken_at = Timestamp::from_sec(1.0);
  prev.counters.emplace_back("pkts", 500u);
  MetricsSnapshot cur;
  cur.taken_at = Timestamp::from_sec(2.0);
  cur.counters.emplace_back("pkts", 20u);  // reset (e.g. new run)
  const SnapshotDelta d = SnapshotDelta::between(prev, cur);
  EXPECT_EQ(d.counter("pkts")->delta, 0u);
  EXPECT_DOUBLE_EQ(d.counter("pkts")->per_sec, 0.0);
}

TEST(SnapshotTimerTest, ManualTicksDriveExportersWithSimClock) {
  MetricsRegistry reg;
  std::atomic<std::uint64_t> pkts{0};
  reg.register_counter_fn("pkts", [&pkts] { return pkts.load(); });
  SimClock clock(Timestamp::from_sec(10.0));
  SnapshotTimer timer(reg, Duration::from_sec(1.0), &clock);
  auto exporter = std::make_shared<RecordingExporter>();
  timer.add_exporter(exporter);

  pkts += 40;
  timer.tick();
  clock.advance(Duration::from_sec(2.0));
  pkts += 80;
  timer.tick();

  EXPECT_EQ(timer.ticks(), 2u);
  ASSERT_EQ(exporter->snapshots.size(), 2u);
  EXPECT_EQ(exporter->snapshots[0].counter_or("pkts"), 40u);
  EXPECT_EQ(exporter->snapshots[1].counter_or("pkts"), 120u);
  // First tick has no previous snapshot: the self-delta has rate 0.
  EXPECT_DOUBLE_EQ(exporter->deltas[0].counter("pkts")->per_sec, 0.0);
  // Second tick: 80 more over 2 simulated seconds.
  EXPECT_EQ(exporter->deltas[1].counter("pkts")->delta, 80u);
  EXPECT_DOUBLE_EQ(exporter->deltas[1].counter("pkts")->per_sec, 40.0);
  EXPECT_EQ(timer.last_snapshot().counter_or("pkts"), 120u);
}

TEST(SnapshotTimerTest, ThreadTicksPeriodicallyAndStopTakesFinalSnapshot) {
  MetricsRegistry reg;
  std::atomic<std::uint64_t> pkts{0};
  reg.register_counter_fn("pkts", [&pkts] { return pkts.load(); });
  SnapshotTimer timer(reg, Duration::from_ms(10));
  auto exporter = std::make_shared<RecordingExporter>();
  timer.add_exporter(exporter);

  timer.start();
  pkts += 7;
  // Wait for two periodic ticks of the 10 ms timer, not a fixed sleep: a
  // loaded host can hold the timer thread off the CPU for tens of ms.
  // The deadline only bounds a timer that never ticks, which fails below.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (timer.ticks() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  timer.stop();  // joins, then one final tick

  EXPECT_GE(timer.ticks(), 2u);  // several periodic + the final one
  ASSERT_FALSE(exporter->snapshots.empty());
  EXPECT_EQ(exporter->snapshots.back().counter_or("pkts"), 7u);

  const std::uint64_t after_stop = timer.ticks();
  timer.stop();  // idempotent
  EXPECT_EQ(timer.ticks(), after_stop);
}

TEST(SnapshotTimerTest, StopWithoutStartStillDrainsOnce) {
  MetricsRegistry reg;
  std::atomic<std::uint64_t> pkts{0};
  reg.register_counter_fn("pkts", [&pkts] { return pkts.load(); });
  pkts += 5;
  SnapshotTimer timer(reg, Duration::from_sec(100.0));
  auto exporter = std::make_shared<RecordingExporter>();
  timer.add_exporter(exporter);
  timer.stop();  // never started: no thread to join, but the final drain still runs
  ASSERT_EQ(exporter->snapshots.size(), 1u);
  EXPECT_EQ(exporter->snapshots[0].counter_or("pkts"), 5u);
  EXPECT_EQ(timer.ticks(), 1u);
  timer.stop();  // idempotent: the drain happens exactly once
  EXPECT_EQ(exporter->snapshots.size(), 1u);
  EXPECT_EQ(timer.ticks(), 1u);
}

TEST(SnapshotTimerTest, StartedButImmediatelyStoppedStillExportsOnce) {
  MetricsRegistry reg;
  std::atomic<std::uint64_t> pkts{0};
  reg.register_counter_fn("pkts", [&pkts] { return pkts.load(); });
  pkts += 3;
  SnapshotTimer timer(reg, Duration::from_sec(100.0));  // never fires on its own
  auto exporter = std::make_shared<RecordingExporter>();
  timer.add_exporter(exporter);
  timer.start();
  timer.stop();  // short run: the final tick is the only export
  ASSERT_EQ(exporter->snapshots.size(), 1u);
  EXPECT_EQ(exporter->snapshots[0].counter_or("pkts"), 3u);
}

}  // namespace
}  // namespace ruru::obs
