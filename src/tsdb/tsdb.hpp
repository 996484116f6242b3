#pragma once
// Tagged time-series data model (the InfluxDB role in the paper's
// pipeline); the store itself is TsdbEngine in tsdb/query.hpp.
//
// Data model mirrors what the Grafana dashboards need: a measurement
// name, a small set of tag key/values (src_city, dst_city, src_as, ...),
// and timestamped float values.  Queries compute min / max / mean /
// median (+p95/p99) over a time range — the exact statistics §2 lists —
// optionally grouped by one tag or bucketed into fixed windows.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace ruru {

/// Sorted key=value tags; the series identity is (measurement, tags).
class TagSet {
 public:
  TagSet() = default;

  TagSet& add(std::string key, std::string value) {
    tags_.emplace_back(std::move(key), std::move(value));
    normalized_ = false;
    canonical_valid_ = false;
    return *this;
  }

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  /// Canonical "k1=v1,k2=v2" form (sorted by key).  Built once and
  /// cached; repeat calls return the cached string instead of
  /// reallocating it.
  [[nodiscard]] const std::string& canonical() const;

  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& entries() const {
    return tags_;
  }

  /// True when every (key,value) in `filter` appears in this set.
  [[nodiscard]] bool matches(const TagSet& filter) const;

 private:
  void normalize() const;
  mutable std::vector<std::pair<std::string, std::string>> tags_;
  mutable std::string canonical_;
  mutable bool normalized_ = true;
  mutable bool canonical_valid_ = false;
};

struct AggregateResult {
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double median = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

struct WindowResult {
  Timestamp window_start;
  AggregateResult stats;
};

struct GroupResult {
  std::string tag_value;
  AggregateResult stats;
};

}  // namespace ruru
