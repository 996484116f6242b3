#pragma once
// IP -> location range database (the IP2Location role).
//
// Records are non-overlapping, inclusive IPv4 ranges sorted by start.
// Storage is structure-of-arrays: the lookup runs on the shared
// Ipv4RangeIndex (geo/range_index.hpp); the payload — interned name ids
// and coordinates, all POD — lives in parallel arrays touched once per
// hit.  Strings are stored exactly once, in the shared geo_names()
// interner.
//
// The database round-trips through a compact binary file format so
// deployments can ship it separately from the binary, like the
// commercial DB the paper used; the format is unchanged from the
// string-based storage (v1).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geo/interner.hpp"
#include "geo/range_index.hpp"
#include "net/ip_address.hpp"
#include "util/result.hpp"

namespace ruru {

/// Interchange record for build()/record()/save(); not the hot-path
/// representation.
struct GeoRecord {
  std::uint32_t range_start = 0;  ///< host-order IPv4, inclusive
  std::uint32_t range_end = 0;    ///< host-order IPv4, inclusive
  std::string country;            ///< ISO 3166-1 alpha-2
  std::string city;
  double latitude = 0.0;
  double longitude = 0.0;
};

class GeoDatabase {
 public:
  static constexpr std::size_t npos = Ipv4RangeIndex::npos;

  GeoDatabase() = default;

  /// Sorts records, validates that ranges do not overlap, interns names.
  static Result<GeoDatabase> build(std::vector<GeoRecord> records);

  /// Row index of the range containing `addr`, or npos.  Radix skip +
  /// branchless search; no allocation, no string touch.
  [[nodiscard]] std::size_t find(Ipv4Address addr) const { return index_.find(addr); }

  /// Prefetch the radix bucket for `addr` (batch lookahead).
  void prefetch(Ipv4Address addr) const { index_.prefetch(addr); }

  // POD row accessors (no allocation; format names via geo_names()).
  [[nodiscard]] std::uint32_t range_start(std::size_t i) const { return index_.start(i); }
  [[nodiscard]] std::uint32_t range_end(std::size_t i) const { return index_.end(i); }
  [[nodiscard]] std::uint32_t country_id(std::size_t i) const { return country_id_[i]; }
  [[nodiscard]] std::uint32_t city_id(std::size_t i) const { return city_id_[i]; }
  [[nodiscard]] double latitude(std::size_t i) const { return lat_[i]; }
  [[nodiscard]] double longitude(std::size_t i) const { return lon_[i]; }

  /// Materializes a record's strings through the interner — format /
  /// test / save time only, never on the enrichment path.
  [[nodiscard]] GeoRecord record(std::size_t i) const;

  /// Convenience for tools and tests: find + record.
  [[nodiscard]] std::optional<GeoRecord> lookup_record(Ipv4Address addr) const {
    const std::size_t i = find(addr);
    if (i == npos) return std::nullopt;
    return record(i);
  }

  [[nodiscard]] std::size_t size() const { return index_.size(); }

  Status save(const std::string& path) const;
  static Result<GeoDatabase> load(const std::string& path);

 private:
  Ipv4RangeIndex index_;
  std::vector<std::uint32_t> country_id_;
  std::vector<std::uint32_t> city_id_;
  std::vector<double> lat_;
  std::vector<double> lon_;
};

}  // namespace ruru
