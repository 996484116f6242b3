#pragma once
// Live telemetry: a hot-path-safe metrics registry for the pipeline.
//
// The paper's whole point is continuous visibility into latency, yet the
// pipeline itself was a black box until finish().  This registry gives
// every stage named counters, gauges and log-linear histograms that are
// safe to touch from the data path:
//
//  * metrics are registered ONCE at pipeline construction (a mutex
//    guards registration and snapshot — never the data path);
//  * counters and gauges are callbacks polled at snapshot time over the
//    stages' own single-writer stat cells (NicStats, WorkerStats, ...)
//    and atomics, so the per-packet path is not instrumented twice;
//  * histograms are pushed through hot-path handles: raw pointers into
//    per-worker shards, one writer per shard, so recording is relaxed
//    atomic loads/stores (no RMW lock prefix, no lock, no allocation);
//    snapshot() merges the shards on read.
//
// Histograms reuse Histogram's log-linear bucketing (<= ~3.2% relative
// error), stored as per-shard atomic bucket arrays.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/histogram.hpp"
#include "util/time.hpp"

namespace ruru::obs {

/// Merged view of one sharded histogram at snapshot time.  Quantiles are
/// bucket representatives (same error bound as ruru::Histogram).
struct HistogramStats {
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::vector<std::uint64_t> buckets;  ///< merged across shards

  [[nodiscard]] double mean() const {
    return count != 0 ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }
  /// Value at quantile q in [0,1]; 0 when empty.
  [[nodiscard]] std::int64_t percentile(double q) const {
    return Histogram::percentile(buckets, count, min, max, q);
  }
};

/// Point-in-time, merged-across-shards view of every metric.
struct MetricsSnapshot {
  Timestamp taken_at;
  std::vector<std::pair<std::string, std::uint64_t>> counters;  ///< registration order
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramStats>> histograms;

  [[nodiscard]] const std::uint64_t* counter(std::string_view name) const;
  [[nodiscard]] const double* gauge(std::string_view name) const;
  [[nodiscard]] const HistogramStats* histogram(std::string_view name) const;
  /// Lookup with a default — the PipelineSummary view uses this.
  [[nodiscard]] std::uint64_t counter_or(std::string_view name, std::uint64_t fallback = 0) const {
    const auto* v = counter(name);
    return v != nullptr ? *v : fallback;
  }
};

/// Per-counter interval delta + rate between two snapshots.
struct MetricRate {
  std::string name;
  std::uint64_t delta = 0;   ///< cur - prev (0 on counter reset)
  double per_sec = 0.0;
};

/// What changed between two snapshots: counter deltas/rates and
/// histogram count deltas (the "events this interval" series).
struct SnapshotDelta {
  double interval_s = 0.0;
  std::vector<MetricRate> counters;
  std::vector<MetricRate> histogram_counts;

  [[nodiscard]] static SnapshotDelta between(const MetricsSnapshot& prev,
                                             const MetricsSnapshot& cur);
  [[nodiscard]] const MetricRate* counter(std::string_view name) const;
};

namespace detail {

// One cache line per shard: shards of one histogram never false-share.
struct alignas(64) HistShard {
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(Histogram::kMajors) * Histogram::kMinors;
  HistShard() : buckets(kBuckets) {}  // parens: count ctor, not init-list
  std::vector<std::atomic<std::uint64_t>> buckets;
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::int64_t> sum{0};
  std::atomic<std::int64_t> min{0};
  std::atomic<std::int64_t> max{0};
};

struct HistogramMetric {
  std::string name;
  std::vector<std::unique_ptr<HistShard>> shards;
};

struct CallbackCounter {
  std::string name;
  std::function<std::uint64_t()> fn;
};

struct CallbackGauge {
  std::string name;
  std::function<double()> fn;
};

}  // namespace detail

/// Hot-path handle to one shard of a log-linear histogram.  Single
/// writer per shard; record() is a handful of relaxed loads/stores.
/// Default-constructed handles are inert no-ops (metrics disabled).
class HistogramHandle {
 public:
  HistogramHandle() = default;
  /// Inert handles (no shard attached) must cost one predictable branch
  /// at the record site — record() sits inside find()/poll loops, so
  /// the null check is inlined here and only attached handles pay the
  /// out-of-line bucketing path.
  void record(std::int64_t value) const {
    if (shard_ == nullptr) return;
    record_impl(value);
  }
  void record(Duration d) const { record(d.ns); }
  /// Multi-writer variant (RMW adds, CAS min/max) for the rare sites
  /// where several threads legitimately share one shard — e.g. timing
  /// around an already-mutex-guarded sink. Counts are exact; min/max are
  /// best-effort during the first concurrent records.
  void record_shared(std::int64_t value) const {
    if (shard_ == nullptr) return;
    record_shared_impl(value);
  }
  void record_shared(Duration d) const { record_shared(d.ns); }
  [[nodiscard]] bool attached() const { return shard_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit HistogramHandle(detail::HistShard* shard) : shard_(shard) {}
  void record_impl(std::int64_t value) const;         ///< shard_ != nullptr
  void record_shared_impl(std::int64_t value) const;  ///< shard_ != nullptr
  detail::HistShard* shard_ = nullptr;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- registration (construction time; mutex-guarded, not hot) ---

  /// Handle to shard `shard` of histogram `name` (created on first use;
  /// shards grow to cover the largest index requested).
  HistogramHandle histogram(const std::string& name, std::size_t shard = 0);

  /// Counters and gauges are callbacks polled at snapshot time only —
  /// zero data-path cost.  `fn` must be safe to call from the snapshot
  /// thread (read atomics / StatCells, or take the target's own lock).
  void register_counter_fn(std::string name, std::function<std::uint64_t()> fn);
  void register_gauge_fn(std::string name, std::function<double()> fn);

  /// Merged view of everything, callbacks polled, histogram shards merged.
  [[nodiscard]] MetricsSnapshot snapshot(Timestamp now) const;

  [[nodiscard]] std::size_t metric_count() const;

 private:
  detail::HistogramMetric& histogram_metric(const std::string& name);

  mutable std::mutex mu_;
  // unique_ptr elements: handles hold raw pointers, so storage must be
  // address-stable across later registrations.
  std::vector<std::unique_ptr<detail::HistogramMetric>> histograms_;
  std::vector<detail::CallbackCounter> counter_fns_;
  std::vector<detail::CallbackGauge> gauge_fns_;
};

}  // namespace ruru::obs
