#pragma once
// Series identity on packed interned ids.
//
// A series is (measurement, tag set).  The index interns every
// measurement name, tag key and tag value once (reusing StringInterner,
// the same arena discipline as the geo/AS name tables) and keys series
// by (measurement_id:u32, tag_fingerprint:u64) in a flat open-addressed
// u64 map — no canonical-string rebuilding and no std::map pointer
// chasing on the resolve path, and nothing string-shaped at all on the
// per-point append path (appends carry only a SeriesId).
//
// Tag pairs are stored in the TagSet's canonical (key-sorted) order, so
// "first value for a key" matches the TagSet::get() contract and
// the fingerprint is insertion-order independent.  The canonical string
// is built once per series at creation (cold) and kept for the WAL.
//
// Concurrency: resolve() takes the exclusive lock (new series are rare);
// every read-side helper takes the shared lock.  SeriesId values are
// dense, stable, and never reused.

#include <cstdint>
#include <deque>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "geo/interner.hpp"
#include "tsdb/tsdb.hpp"

namespace ruru {

using SeriesId = std::uint32_t;

struct TagIdPair {
  std::uint32_t key = 0;
  std::uint32_t value = 0;

  friend bool operator==(TagIdPair, TagIdPair) = default;
};

/// A tag filter resolved to interned ids.  `impossible` is set when a
/// filter string was never interned anywhere — no series can match.
struct TagFilter {
  std::vector<TagIdPair> pairs;
  bool impossible = false;
};

class SeriesIndex {
 public:
  SeriesIndex();

  SeriesIndex(const SeriesIndex&) = delete;
  SeriesIndex& operator=(const SeriesIndex&) = delete;

  /// Returns the id for (measurement, tags), creating it if unseen.
  SeriesId resolve(std::string_view measurement, const TagSet& tags);

  /// Like resolve(), but copies the tag identity of an existing series —
  /// the downsample path re-keys a source series under a new measurement
  /// without touching strings.
  SeriesId resolve_like(SeriesId src, std::string_view measurement);

  /// Interner id of a measurement/key/value string; kNotFound if unseen.
  [[nodiscard]] std::uint32_t find_name(std::string_view s) const {
    return names_.find(s);
  }

  [[nodiscard]] TagFilter make_filter(const TagSet& filter) const;

  /// True when every (key,value) in `filter` matches this series
  /// (TagSet::matches semantics: first value per key wins).
  [[nodiscard]] bool matches(SeriesId sid, const TagFilter& filter) const;

  /// Value id for `key_id` on this series; kNotFound when absent.
  [[nodiscard]] std::uint32_t tag_value_id(SeriesId sid, std::uint32_t key_id) const;

  [[nodiscard]] std::string_view name(std::uint32_t id) const { return names_.view(id); }
  [[nodiscard]] std::uint32_t measurement_id(SeriesId sid) const;
  /// Canonical "k1=v1,k2=v2" form (stable storage; valid for the index
  /// lifetime — the WAL writes it per record).
  [[nodiscard]] const std::string& canonical(SeriesId sid) const;

  /// Appends the ids of every series of `measurement_id` to `out`.
  void series_of(std::uint32_t measurement_id, std::vector<SeriesId>& out) const;

  /// Appends every distinct measurement id to `out`.
  void measurements(std::vector<std::uint32_t>& out) const;

  [[nodiscard]] std::size_t size() const;

  static constexpr std::uint32_t kNotFound = StringInterner::kNotFound;

 private:
  struct Meta {
    std::uint32_t measurement = 0;
    std::uint64_t fingerprint = 0;
    std::vector<TagIdPair> tags;  ///< canonical (key-sorted) order
    std::string canonical;
  };

  static std::uint64_t fingerprint(std::uint32_t measurement_id,
                                   const std::vector<TagIdPair>& tags);
  SeriesId insert_locked(std::uint32_t measurement_id, std::vector<TagIdPair> tags,
                         std::string canonical);
  [[nodiscard]] SeriesId probe_locked(std::uint64_t fp, std::uint32_t measurement_id,
                                      const std::vector<TagIdPair>& tags) const;
  void grow_locked();

  static constexpr std::uint32_t kEmptySlot = 0xFFFF'FFFFu;

  StringInterner names_;
  mutable std::shared_mutex mu_;
  std::deque<Meta> series_;           ///< SeriesId -> meta (stable storage)
  std::vector<std::uint64_t> slot_fp_;  ///< open addressing: fingerprints
  std::vector<std::uint32_t> slot_sid_;
  std::size_t used_ = 0;
  /// measurement id -> series ids, in creation order.
  std::vector<std::pair<std::uint32_t, std::vector<SeriesId>>> by_measurement_;
};

}  // namespace ruru
