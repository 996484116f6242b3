#pragma once
// The sorted IPv4 range index GeoDatabase and AsDatabase both hold.
//
// Inclusive, non-overlapping [start, end] ranges sorted by start, kept
// as two contiguous u32 arrays.  find() confines a branchless binary
// search over the start array (4-byte stride, ~16 keys per cache line)
// to one /16 bucket through a precomputed radix skip index, and returns
// the row the owning database uses to reach its parallel payload
// arrays.  find() stays inline: it is the enrichment hot path.

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/ip_address.hpp"
#include "util/result.hpp"

namespace ruru {

class Ipv4RangeIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Sorts `records` by range_start (in place, so the caller's payload
  /// rows line up with the index rows) and indexes their ranges.
  /// Rejects a range that ends before it starts or overlaps its
  /// predecessor; `what` prefixes the error ("geo", "asdb").
  template <typename Record>
  static Result<Ipv4RangeIndex> build(std::vector<Record>& records, std::string_view what) {
    std::sort(records.begin(), records.end(),
              [](const Record& a, const Record& b) { return a.range_start < b.range_start; });
    Ipv4RangeIndex index;
    index.starts_.reserve(records.size());
    index.ends_.reserve(records.size());
    const std::string at = std::string(what) + ": ";
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (records[i].range_end < records[i].range_start) {
        return make_error(at + "record " + std::to_string(i) + " has end < start");
      }
      if (i > 0 && records[i].range_start <= records[i - 1].range_end) {
        return make_error(at + "overlapping ranges at index " + std::to_string(i));
      }
      index.starts_.push_back(records[i].range_start);
      index.ends_.push_back(records[i].range_end);
    }
    index.radix_.assign(65537, 0);
    std::size_t row = 0;
    for (std::size_t h = 0; h <= 65536; ++h) {
      while (row < index.starts_.size() && (index.starts_[row] >> 16) < h) ++row;
      index.radix_[h] = static_cast<std::uint32_t>(row);
    }
    return index;
  }

  /// Row of the range containing `addr`, or npos.  Radix skip +
  /// branchless search; no allocation.
  [[nodiscard]] std::size_t find(Ipv4Address addr) const {
    const std::uint32_t v = addr.value();
    const std::uint32_t h = v >> 16;
    std::size_t base = radix_.empty() ? 0 : radix_[h];
    std::size_t n = radix_.empty() ? 0 : radix_[h + 1] - base;
    while (n > 0) {  // branchless upper_bound: ternaries compile to cmov
      const std::size_t half = n / 2;
      const bool right = starts_[base + half] <= v;
      base = right ? base + half + 1 : base;
      n = right ? n - half - 1 : half;
    }
    if (base == 0) return npos;
    const std::size_t i = base - 1;  // starts_[i] <= v by construction
    return ends_[i] >= v ? i : npos;
  }

  /// Prefetch the radix bucket for `addr` (batch lookahead).
  void prefetch(Ipv4Address addr) const {
    if (!radix_.empty()) __builtin_prefetch(&radix_[addr.value() >> 16], 0, 1);
  }

  [[nodiscard]] std::uint32_t start(std::size_t i) const { return starts_[i]; }
  [[nodiscard]] std::uint32_t end(std::size_t i) const { return ends_[i]; }
  [[nodiscard]] std::size_t size() const { return starts_.size(); }

 private:
  std::vector<std::uint32_t> starts_;  // sorted; the only array the search walks
  std::vector<std::uint32_t> ends_;
  std::vector<std::uint32_t> radix_;  // 65537: first row with start >= (h<<16)
};

}  // namespace ruru
