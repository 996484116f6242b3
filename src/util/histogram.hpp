#pragma once
// Log-linear latency histogram (HdrHistogram-style).
//
// Grafana in the paper displays min / max / median / mean per interval;
// the pipeline needs those online without storing raw samples.  Values
// are bucketed into 64 power-of-two major buckets, each split into 32
// linear minor buckets, giving <= ~3.2% relative error across the full
// int64 nanosecond range.

#include <cstdint>
#include <span>
#include <vector>

#include "util/time.hpp"

namespace ruru {

class Histogram {
 public:
  static constexpr int kMinorBits = 5;                 // 32 minor buckets
  static constexpr int kMinors = 1 << kMinorBits;
  static constexpr int kMajors = 64 - kMinorBits + 1;  // enough for any int64

  Histogram() : buckets_(static_cast<std::size_t>(kMajors) * kMinors, 0) {}

  void record(std::int64_t value);
  void record(Duration d) { record(d.ns); }

  /// Merge another histogram into this one (per-queue -> global rollup).
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::int64_t min() const { return count_ != 0 ? min_ : 0; }
  [[nodiscard]] std::int64_t max() const { return count_ != 0 ? max_ : 0; }
  [[nodiscard]] double mean() const {
    return count_ != 0 ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }

  /// Value at quantile q in [0,1] (q=0.5 -> median). Returns a bucket
  /// representative value; 0 when empty.
  [[nodiscard]] std::int64_t percentile(double q) const {
    return percentile(buckets_, count_, min_, max_, q);
  }
  /// The same rank rule over any bucket array laid out like this class's
  /// (the metrics registry's merged shards): 1-based target rank, exact
  /// extremes, bucket representatives clamped into [min, max].
  [[nodiscard]] static std::int64_t percentile(std::span<const std::uint64_t> buckets,
                                               std::uint64_t count, std::int64_t min,
                                               std::int64_t max, double q);

  void clear();

  /// Index of the bucket a value falls into (exposed for tests).
  [[nodiscard]] static std::size_t bucket_index(std::int64_t value);
  /// Representative (midpoint) value of a bucket.
  [[nodiscard]] static std::int64_t bucket_value(std::size_t index);

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

}  // namespace ruru
