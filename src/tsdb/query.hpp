#pragma once
// TsdbEngine: the production serving side of the paper's InfluxDB role.
//
// Storage model
//   * Series identity is (measurement_id:u32, tag_fingerprint:u64) on
//     interned ids (series_index.hpp); the per-point ingest path carries
//     only a SeriesId — no strings, no canonicalization, no std::map.
//   * Points live in Gorilla-compressed chunks (chunk.hpp): one open
//     ChunkWriter per series plus a list of immutable SealedChunks.
//     A chunk seals when it reaches `chunk_points` or its timestamp
//     leaves the current time partition.
//   * Series are spread over N shards by series-id hash (the same
//     discipline as the flow table and bus fan-in lanes).  Ingest locks
//     only the owning shard; a query holds a shard lock just long
//     enough to copy sealed-chunk pointers and snapshot the open chunk,
//     then decodes lock-free.  Ingest never serializes behind a scan.
//
// Query model
//   aggregate / window_aggregate / group_by / downsample decode the
//   compressed chunks a batch at a time (decode-on-scan; no materialized
//   vector<double> per series) and reproduce the uncompressed test
//   oracle's results exactly (tests/oracle): summarize() orders each
//   group's values by IEEE-754 totalOrder before accumulating, so results
//   are independent of decode order, and that order is std::sort's
//   wherever std::sort's is defined, so the parity suite can compare bit
//   for bit.  window_aggregate buckets per point, not per window.

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "tsdb/chunk.hpp"
#include "tsdb/series_index.hpp"
#include "tsdb/tsdb.hpp"
#include "util/time.hpp"

namespace ruru {

class Wal;

/// IEEE-754 totalOrder as an unsigned key: -NaN < -inf < ... < -0.0 <
/// +0.0 < ... < +inf < +NaN.  Where std::sort orders doubles at all (no
/// NaN, no mix of -0.0 and +0.0) the two orders agree.
constexpr std::uint64_t order_key(double v) {
  const auto b = std::bit_cast<std::uint64_t>(v);
  return b ^ ((0 - (b >> 63)) | (std::uint64_t{1} << 63));
}

/// count/min/max/mean/median/p95/p99 of the values whose order keys are
/// `keys`, accumulated in ascending key order (the oracle's sorted
/// order).  Sorts `keys` in place.
AggregateResult summarize(std::vector<std::uint64_t>& keys);

struct TsdbOptions {
  /// Series shards (rounded up to a power of two, clamped to [1, 256]).
  std::size_t shards = 8;
  /// Seal the open chunk at this many points.
  std::uint32_t chunk_points = 512;
  /// Time-partition width; a point outside the open chunk's partition
  /// seals it.  <= 0 disables time partitioning.
  Duration partition = Duration::from_sec(600.0);
};

class TsdbEngine {
 public:
  explicit TsdbEngine(TsdbOptions options = {});

  TsdbEngine(const TsdbEngine&) = delete;
  TsdbEngine& operator=(const TsdbEngine&) = delete;

  /// Attach a write-ahead log: every append is mirrored into it.
  void attach_wal(Wal* wal) { wal_ = wal; }

  /// Resolves (measurement, tags) to a stable series handle.  Cold path:
  /// call once per distinct series, then append() per point.
  SeriesId series(std::string_view measurement, const TagSet& tags) {
    return index_.resolve(measurement, tags);
  }

  /// Hot ingest path: no strings, locks only the owning shard.
  void append(SeriesId sid, Timestamp time, double value);

  /// Resolve + append in one call (cold paths, WAL replay).
  void write(const std::string& measurement, const TagSet& tags, Timestamp time, double value) {
    append(index_.resolve(measurement, tags), time, value);
  }

  /// Stats over [t0, t1) for points whose tags match `filter`.
  [[nodiscard]] AggregateResult aggregate(const std::string& measurement, const TagSet& filter,
                                          Timestamp t0, Timestamp t1) const;

  /// Fixed-width windows over [t0, t1); empty windows are omitted.
  [[nodiscard]] std::vector<WindowResult> window_aggregate(const std::string& measurement,
                                                           const TagSet& filter, Timestamp t0,
                                                           Timestamp t1, Duration step) const;

  /// Group matching series by the value of `tag_key`.
  [[nodiscard]] std::vector<GroupResult> group_by(const std::string& measurement,
                                                  const std::string& tag_key,
                                                  const TagSet& filter, Timestamp t0,
                                                  Timestamp t1) const;

  /// Continuous-query rollup: aggregates `src` into `window`-wide
  /// buckets per series (tags preserved) and writes `stat` ("mean"|
  /// "median"|"min"|"max"|"count"|"p99") of each bucket into `dst` at
  /// the bucket start time. Returns points written.
  std::size_t downsample(const std::string& src, const std::string& dst, Duration window,
                         const std::string& stat = "mean");

  /// Drops points older than `horizon` before `now`; whole sealed chunks
  /// below the cutoff drop in O(1), straddling chunks are rewritten.
  std::size_t enforce_retention(Timestamp now, Duration horizon,
                                const std::vector<std::string>& only_measurements = {});

  /// Series currently holding at least one point.
  [[nodiscard]] std::size_t series_count() const;
  [[nodiscard]] std::uint64_t points_written() const {
    return points_.load(std::memory_order_relaxed);
  }

  struct StorageStats {
    std::uint64_t points = 0;        ///< resident (after retention)
    std::uint64_t bytes = 0;         ///< compressed bytes, open + sealed
    std::uint64_t sealed_chunks = 0;
    std::uint64_t open_chunks = 0;
    [[nodiscard]] double bytes_per_point() const {
      return points == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(points);
    }
  };
  [[nodiscard]] StorageStats storage_stats() const;

  [[nodiscard]] const SeriesIndex& index() const { return index_; }

 private:
  struct SeriesStore {
    ChunkWriter open;
    std::int64_t partition = 0;  ///< time-partition index of the open chunk
    std::vector<std::shared_ptr<const SealedChunk>> sealed;
  };

  struct Shard {
    mutable std::mutex mu;
    // Indexed directly by SeriesId (ids are dense); entries for ids
    // owned by other shards stay null.  O(1) store lookup per append.
    std::vector<std::unique_ptr<SeriesStore>> stores;

    [[nodiscard]] SeriesStore* find(SeriesId sid) const {
      return sid < stores.size() ? stores[sid].get() : nullptr;
    }
    SeriesStore& find_or_create(SeriesId sid);
  };

  /// Point-in-time view of one series' chunks, decodable without locks.
  struct SeriesSnapshot {
    std::vector<std::shared_ptr<const SealedChunk>> sealed;
    std::vector<std::uint8_t> open_bytes;
    std::uint32_t open_count = 0;
    std::int64_t open_min = 0;
    std::int64_t open_max = 0;
  };

  // Fibonacci-hash the dense ids; the 64-bit intermediate keeps the
  // shift defined when shard_shift_ is 32 (single-shard config).
  [[nodiscard]] std::size_t shard_index(SeriesId sid) const {
    const std::uint64_t h = (static_cast<std::uint64_t>(sid) * 0x9E3779B9ull) & 0xFFFF'FFFFull;
    return static_cast<std::size_t>(h >> shard_shift_);
  }
  [[nodiscard]] Shard& shard_of(SeriesId sid) { return *shards_[shard_index(sid)]; }
  [[nodiscard]] const Shard& shard_of(SeriesId sid) const { return *shards_[shard_index(sid)]; }

  void snapshot_series(SeriesId sid, SeriesSnapshot& out) const;

  /// Invokes fn(ts, values, n) with batches of the points of `snap` with
  /// t0 <= ts < t1.
  template <typename Fn>
  static void scan(const SeriesSnapshot& snap, Timestamp t0, Timestamp t1, Fn&& fn);

  /// Matching series ids for (measurement, filter); false when the
  /// measurement or a filter string is unknown (nothing can match).
  bool matching_series(const std::string& measurement, const TagSet& filter,
                       std::vector<SeriesId>& out) const;

  TsdbOptions options_;
  SeriesIndex index_;
  std::vector<std::unique_ptr<Shard>> shards_;
  unsigned shard_shift_ = 32;
  std::atomic<std::uint64_t> points_{0};
  Wal* wal_ = nullptr;
};

}  // namespace ruru
