#include "util/histogram.hpp"

#include <algorithm>
#include <bit>

namespace ruru {

std::size_t Histogram::bucket_index(std::int64_t value) {
  if (value < 0) value = 0;
  const auto v = static_cast<std::uint64_t>(value);
  if (v < kMinors) {
    // Values below 32 land in major bucket 0, identity-mapped.
    return static_cast<std::size_t>(v);
  }
  const int msb = 63 - std::countl_zero(v);          // >= kMinorBits
  const int major = msb - kMinorBits + 1;            // 1..kMajors-1
  const auto minor = static_cast<std::size_t>((v >> (msb - kMinorBits)) & (kMinors - 1));
  return static_cast<std::size_t>(major) * kMinors + minor;
}

std::int64_t Histogram::bucket_value(std::size_t index) {
  const std::size_t major = index / kMinors;
  const std::size_t minor = index % kMinors;
  if (major == 0) return static_cast<std::int64_t>(minor);
  const int msb = static_cast<int>(major) + kMinorBits - 1;
  const std::uint64_t base = (1ULL << msb) | (static_cast<std::uint64_t>(minor) << (msb - kMinorBits));
  const std::uint64_t width = 1ULL << (msb - kMinorBits);
  return static_cast<std::int64_t>(base + width / 2);
}

void Histogram::record(std::int64_t value) {
  if (value < 0) value = 0;
  const std::size_t idx = bucket_index(value);
  ++buckets_[idx];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  if (other.count_ != 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
  }
}

std::int64_t Histogram::percentile(std::span<const std::uint64_t> buckets, std::uint64_t count,
                                   std::int64_t min, std::int64_t max, double q) {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample, 1-based.
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count - 1)) + 1;
  // The extreme ranks are known exactly; bucket midpoints would be off
  // by up to half a bucket width.
  if (target <= 1) return min;
  if (target >= count) return max;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= target) {
      // Clamp representatives so p0/p100 match true min/max.
      return std::clamp(bucket_value(i), min, max);
    }
  }
  return max;
}

void Histogram::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

}  // namespace ruru
