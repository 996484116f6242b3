#pragma once
// IP -> autonomous system range database (the AS half of IP2Location).
//
// Same structure-of-arrays layout as GeoDatabase: the shared
// Ipv4RangeIndex (geo/range_index.hpp) plus POD payload arrays (asn,
// interned org id), names stored once in geo_names().

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geo/interner.hpp"
#include "geo/range_index.hpp"
#include "net/ip_address.hpp"
#include "util/result.hpp"

namespace ruru {

/// Interchange record for build()/record()/save().
struct AsRecord {
  std::uint32_t range_start = 0;  ///< host-order IPv4, inclusive
  std::uint32_t range_end = 0;
  std::uint32_t asn = 0;
  std::string organization;
};

class AsDatabase {
 public:
  static constexpr std::size_t npos = Ipv4RangeIndex::npos;

  AsDatabase() = default;

  static Result<AsDatabase> build(std::vector<AsRecord> records);

  /// Row index of the range containing `addr`, or npos.
  [[nodiscard]] std::size_t find(Ipv4Address addr) const { return index_.find(addr); }

  void prefetch(Ipv4Address addr) const { index_.prefetch(addr); }

  [[nodiscard]] std::uint32_t range_start(std::size_t i) const { return index_.start(i); }
  [[nodiscard]] std::uint32_t range_end(std::size_t i) const { return index_.end(i); }
  [[nodiscard]] std::uint32_t asn(std::size_t i) const { return asn_[i]; }
  [[nodiscard]] std::uint32_t org_id(std::size_t i) const { return org_id_[i]; }

  /// Materializes strings — format/test/save time only.
  [[nodiscard]] AsRecord record(std::size_t i) const;

  [[nodiscard]] std::optional<AsRecord> lookup_record(Ipv4Address addr) const {
    const std::size_t i = find(addr);
    if (i == npos) return std::nullopt;
    return record(i);
  }

  [[nodiscard]] std::size_t size() const { return index_.size(); }

  Status save(const std::string& path) const;
  static Result<AsDatabase> load(const std::string& path);

 private:
  Ipv4RangeIndex index_;
  std::vector<std::uint32_t> asn_;
  std::vector<std::uint32_t> org_id_;
};

}  // namespace ruru
