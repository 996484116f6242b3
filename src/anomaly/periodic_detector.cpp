#include "anomaly/periodic_detector.hpp"

#include <cstdio>

namespace ruru {

PeriodicSpikeDetector::PeriodicSpikeDetector(PeriodicConfig config) : config_(config) {
  const auto n = static_cast<std::size_t>((config_.period.ns + config_.bucket.ns - 1) /
                                          config_.bucket.ns);
  buckets_.resize(n);
}

void PeriodicSpikeDetector::add(Timestamp time, Duration latency) {
  // Offset into the period from the remainder, never idx * period:
  // that product leaves the int64 range for times near INT64_MIN.
  const std::int64_t period_idx = floor_div(time.ns, config_.period.ns);
  const std::int64_t rem = time.ns % config_.period.ns;
  const std::int64_t into = rem < 0 ? rem + config_.period.ns : rem;
  const auto bucket_idx = static_cast<std::size_t>(into / config_.bucket.ns);
  Bucket& b = buckets_[bucket_idx % buckets_.size()];
  b.latency.record(latency.ns);
  auto& pp = b.periods[period_idx];
  ++pp.count;
  if (latency.ns > pp.max_ns) pp.max_ns = latency.ns;
  global_.record(latency.ns);
}

std::vector<PeriodicFinding> PeriodicSpikeDetector::findings() const {
  std::vector<PeriodicFinding> out;
  if (global_.count() == 0) return out;
  const std::int64_t baseline = global_.percentile(0.5);
  const std::int64_t threshold = static_cast<std::int64_t>(
      static_cast<double>(baseline) * config_.spike_factor) + config_.spike_floor.ns;

  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const Bucket& b = buckets_[i];
    if (b.latency.count() < config_.min_samples) continue;
    const std::int64_t bucket_median = b.latency.percentile(0.5);
    if (bucket_median < threshold) continue;
    int recurrences = 0;
    for (const auto& [period, pp] : b.periods) {
      if (pp.max_ns >= threshold) ++recurrences;
    }
    if (recurrences < config_.min_periods) continue;

    PeriodicFinding f;
    f.bucket_index = i;
    f.offset_in_period = Duration{static_cast<std::int64_t>(i) * config_.bucket.ns};
    f.bucket_median = Duration{bucket_median};
    f.baseline_median = Duration{baseline};
    f.periods_seen = recurrences;
    f.samples = b.latency.count();
    out.push_back(f);
  }
  return out;
}

std::vector<Alert> PeriodicSpikeDetector::alerts() const {
  std::vector<Alert> out;
  for (const auto& f : findings()) {
    Alert a;
    a.time = Timestamp{} + f.offset_in_period;
    a.kind = "periodic-glitch";
    a.score = f.baseline_median.ns > 0
                  ? static_cast<double>(f.bucket_median.ns) /
                        static_cast<double>(f.baseline_median.ns)
                  : 0.0;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "recurring spike %.1fs into each period: median %s vs baseline %s "
                  "(%d periods, %llu flows)",
                  f.offset_in_period.to_sec(), to_string(f.bucket_median).c_str(),
                  to_string(f.baseline_median).c_str(), f.periods_seen,
                  static_cast<unsigned long long>(f.samples));
    a.detail = buf;
    a.subject = "offset+" + std::to_string(f.offset_in_period.ns / 1'000'000'000) + "s";
    out.push_back(std::move(a));
  }
  return out;
}

}  // namespace ruru
