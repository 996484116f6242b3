#include "obs/metrics.hpp"

#include <algorithm>

namespace ruru::obs {

// --- MetricsSnapshot lookups ---

const std::uint64_t* MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return &v;
  }
  return nullptr;
}

const double* MetricsSnapshot::gauge(std::string_view name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return &v;
  }
  return nullptr;
}

const HistogramStats* MetricsSnapshot::histogram(std::string_view name) const {
  for (const auto& [n, v] : histograms) {
    if (n == name) return &v;
  }
  return nullptr;
}

// --- SnapshotDelta ---

SnapshotDelta SnapshotDelta::between(const MetricsSnapshot& prev, const MetricsSnapshot& cur) {
  SnapshotDelta d;
  d.interval_s = (cur.taken_at - prev.taken_at).to_sec();
  const double dt = d.interval_s > 0 ? d.interval_s : 0.0;
  const auto rate_of = [dt](std::uint64_t delta) {
    return dt > 0 ? static_cast<double>(delta) / dt : 0.0;
  };
  d.counters.reserve(cur.counters.size());
  for (const auto& [name, value] : cur.counters) {
    const std::uint64_t* before = prev.counter(name);
    // A missing or larger previous value (counter reset / first
    // snapshot) yields delta 0, never an underflowed rate spike.
    const std::uint64_t delta =
        (before != nullptr && *before <= value) ? value - *before : 0;
    d.counters.push_back({name, delta, rate_of(delta)});
  }
  d.histogram_counts.reserve(cur.histograms.size());
  for (const auto& [name, stats] : cur.histograms) {
    const HistogramStats* before = prev.histogram(name);
    const std::uint64_t prev_count = before != nullptr ? before->count : 0;
    const std::uint64_t delta = prev_count <= stats.count ? stats.count - prev_count : 0;
    d.histogram_counts.push_back({name, delta, rate_of(delta)});
  }
  return d;
}

const MetricRate* SnapshotDelta::counter(std::string_view name) const {
  for (const auto& r : counters) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

// --- HistogramHandle ---

void HistogramHandle::record_impl(std::int64_t value) const {
  if (value < 0) value = 0;
  detail::HistShard& s = *shard_;
  const std::size_t idx = Histogram::bucket_index(value);
  s.buckets[idx].store(s.buckets[idx].load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
  const std::uint64_t n = s.count.load(std::memory_order_relaxed);
  if (n == 0) {
    s.min.store(value, std::memory_order_relaxed);
    s.max.store(value, std::memory_order_relaxed);
  } else {
    if (value < s.min.load(std::memory_order_relaxed)) {
      s.min.store(value, std::memory_order_relaxed);
    }
    if (value > s.max.load(std::memory_order_relaxed)) {
      s.max.store(value, std::memory_order_relaxed);
    }
  }
  s.sum.store(s.sum.load(std::memory_order_relaxed) + value, std::memory_order_relaxed);
  // count last: a concurrent snapshot that sees the new count also sees
  // a bucket array whose total is >= count - (shards in flight).
  s.count.store(n + 1, std::memory_order_relaxed);
}

void HistogramHandle::record_shared_impl(std::int64_t value) const {
  if (value < 0) value = 0;
  detail::HistShard& s = *shard_;
  s.buckets[Histogram::bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(value, std::memory_order_relaxed);
  const std::uint64_t prev = s.count.fetch_add(1, std::memory_order_relaxed);
  if (prev == 0) {
    s.min.store(value, std::memory_order_relaxed);
    s.max.store(value, std::memory_order_relaxed);
    return;
  }
  std::int64_t cur = s.min.load(std::memory_order_relaxed);
  while (value < cur &&
         !s.min.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = s.max.load(std::memory_order_relaxed);
  while (value > cur &&
         !s.max.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

// --- MetricsRegistry ---

detail::HistogramMetric& MetricsRegistry::histogram_metric(const std::string& name) {
  for (auto& m : histograms_) {
    if (m->name == name) return *m;
  }
  histograms_.push_back(std::make_unique<detail::HistogramMetric>());
  histograms_.back()->name = name;
  return *histograms_.back();
}

HistogramHandle MetricsRegistry::histogram(const std::string& name, std::size_t shard) {
  std::lock_guard lock(mu_);
  detail::HistogramMetric& m = histogram_metric(name);
  while (m.shards.size() <= shard) {
    m.shards.push_back(std::make_unique<detail::HistShard>());
  }
  return HistogramHandle(m.shards[shard].get());
}

void MetricsRegistry::register_counter_fn(std::string name, std::function<std::uint64_t()> fn) {
  std::lock_guard lock(mu_);
  counter_fns_.push_back({std::move(name), std::move(fn)});
}

void MetricsRegistry::register_gauge_fn(std::string name, std::function<double()> fn) {
  std::lock_guard lock(mu_);
  gauge_fns_.push_back({std::move(name), std::move(fn)});
}

MetricsSnapshot MetricsRegistry::snapshot(Timestamp now) const {
  std::lock_guard lock(mu_);
  MetricsSnapshot snap;
  snap.taken_at = now;

  snap.counters.reserve(counter_fns_.size());
  for (const auto& cb : counter_fns_) snap.counters.emplace_back(cb.name, cb.fn());
  snap.gauges.reserve(gauge_fns_.size());
  for (const auto& cb : gauge_fns_) snap.gauges.emplace_back(cb.name, cb.fn());

  snap.histograms.reserve(histograms_.size());
  for (const auto& m : histograms_) {
    HistogramStats stats;
    stats.buckets.assign(detail::HistShard::kBuckets, 0);
    bool first = true;
    for (const auto& shard : m->shards) {
      const std::uint64_t count = shard->count.load(std::memory_order_relaxed);
      for (std::size_t i = 0; i < stats.buckets.size(); ++i) {
        stats.buckets[i] += shard->buckets[i].load(std::memory_order_relaxed);
      }
      if (count == 0) continue;
      const std::int64_t mn = shard->min.load(std::memory_order_relaxed);
      const std::int64_t mx = shard->max.load(std::memory_order_relaxed);
      if (first) {
        stats.min = mn;
        stats.max = mx;
        first = false;
      } else {
        stats.min = std::min(stats.min, mn);
        stats.max = std::max(stats.max, mx);
      }
      stats.count += count;
      stats.sum += shard->sum.load(std::memory_order_relaxed);
    }
    snap.histograms.emplace_back(m->name, std::move(stats));
  }
  return snap;
}

std::size_t MetricsRegistry::metric_count() const {
  std::lock_guard lock(mu_);
  return counter_fns_.size() + gauge_fns_.size() + histograms_.size();
}

}  // namespace ruru::obs
