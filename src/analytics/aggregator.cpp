#include "analytics/aggregator.hpp"

#include <algorithm>

namespace ruru {

std::uint32_t LatencyAggregator::endpoint_id(const GeoInfo& g) const {
  switch (mode_) {
    case Mode::kCityPair:
      return g.city_key();
    case Mode::kAsPair:
      return g.asn;
    case Mode::kCountryPair:
      return g.country_key();
  }
  return kUnlocated;
}

std::string LatencyAggregator::endpoint_name(std::uint32_t id) const {
  if (mode_ == Mode::kAsPair) return "AS" + std::to_string(id);
  return std::string(name_of(id));
}

void LatencyAggregator::add(const EnrichedSample& sample) {
  const std::uint64_t key =
      (std::uint64_t{endpoint_id(sample.client)} << 32) | endpoint_id(sample.server);
  std::lock_guard lock(mu_);
  PairStats& p = pairs_[key];
  ++p.connections;
  p.total_latency.record(sample.total);
  p.internal_latency.record(sample.internal);
  p.external_latency.record(sample.external);
}

std::vector<PairSummary> LatencyAggregator::summaries() const {
  std::vector<PairSummary> out;
  {
    std::lock_guard lock(mu_);
    out.reserve(pairs_.size());
    for (const auto& [key, stats] : pairs_) {
      PairSummary s;
      s.key = endpoint_name(static_cast<std::uint32_t>(key >> 32)) + "|" +
              endpoint_name(static_cast<std::uint32_t>(key));
      s.connections = stats.connections;
      s.min_total = Duration{stats.total_latency.min()};
      s.max_total = Duration{stats.total_latency.max()};
      s.median_total = Duration{stats.total_latency.percentile(0.5)};
      s.mean_total = Duration{static_cast<std::int64_t>(stats.total_latency.mean())};
      s.p99_total = Duration{stats.total_latency.percentile(0.99)};
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(), [](const PairSummary& a, const PairSummary& b) {
    return a.connections != b.connections ? a.connections > b.connections : a.key < b.key;
  });
  return out;
}

std::uint64_t LatencyAggregator::total_connections() const {
  std::lock_guard lock(mu_);
  std::uint64_t n = 0;
  for (const auto& [key, stats] : pairs_) n += stats.connections;
  return n;
}

std::size_t LatencyAggregator::pair_count() const {
  std::lock_guard lock(mu_);
  return pairs_.size();
}

}  // namespace ruru
