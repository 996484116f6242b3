#include "tsdb/query.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "tsdb/wal.hpp"

namespace ruru {

namespace {

constexpr double from_order_key(std::uint64_t k) {
  return std::bit_cast<double>(k ^ (((k >> 63) - 1) | (std::uint64_t{1} << 63)));
}

constexpr unsigned kDigitBits = 11;
constexpr unsigned kDigits = 6;  // ceil(64 / kDigitBits)
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
/// Below this many items std::sort beats the radix passes' fixed cost.
constexpr std::size_t kRadixMin = 256;

/// Sorts `items` ascending by the u64 `key(item)`.  LSD radix with
/// 11-bit digits; one histogram pass counts every digit, and a digit
/// every key shares is not scattered.  Small inputs take std::sort.
/// Items with equal keys may land in any order.
template <typename T, typename Key>
void sort_by_key(std::vector<T>& items, Key key) {
  const std::size_t n = items.size();
  if (n < kRadixMin || n > std::numeric_limits<std::uint32_t>::max()) {
    std::sort(items.begin(), items.end(),
              [&](const T& a, const T& b) { return key(a) < key(b); });
    return;
  }
  std::vector<std::uint32_t> hist(kDigits * kBuckets, 0);
  for (const T& item : items) {
    const std::uint64_t k = key(item);
    for (unsigned d = 0; d < kDigits; ++d) {
      ++hist[d * kBuckets + ((k >> (d * kDigitBits)) & (kBuckets - 1))];
    }
  }
  std::vector<T> tmp(n);
  T* src = items.data();
  T* dst = tmp.data();
  const std::uint64_t first = key(items[0]);
  for (unsigned d = 0; d < kDigits; ++d) {
    const unsigned shift = d * kDigitBits;
    std::uint32_t* offset = &hist[d * kBuckets];
    if (offset[(first >> shift) & (kBuckets - 1)] == n) continue;
    std::uint32_t sum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) sum += std::exchange(offset[b], sum);
    for (std::size_t i = 0; i < n; ++i) {
      dst[offset[(key(src[i]) >> shift) & (kBuckets - 1)]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != items.data()) items.swap(tmp);
}

/// A value's order key tagged with the bucket (window) it falls in.
struct BucketedKey {
  std::uint64_t bucket;
  std::uint64_t key;
};

/// Groups `points` by bucket and calls emit(bucket, stats) once per
/// bucket, in ascending bucket order.
template <typename Emit>
void summarize_buckets(std::vector<BucketedKey>& points, Emit&& emit) {
  sort_by_key(points, [](const BucketedKey& p) { return p.bucket; });
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < points.size();) {
    const std::uint64_t bucket = points[i].bucket;
    keys.clear();
    for (; i < points.size() && points[i].bucket == bucket; ++i) keys.push_back(points[i].key);
    emit(bucket, summarize(keys));
  }
}

/// Appends the order keys of a batch of values.
void append_keys(std::vector<std::uint64_t>& keys, const double* values, std::size_t n) {
  const std::size_t at = keys.size();
  keys.resize(at + n);
  for (std::size_t i = 0; i < n; ++i) keys[at + i] = order_key(values[i]);
}

double pick_stat(const AggregateResult& r, const std::string& stat) {
  if (stat == "median") return r.median;
  if (stat == "min") return r.min;
  if (stat == "max") return r.max;
  if (stat == "p99") return r.p99;
  if (stat == "count") return static_cast<double>(r.count);
  return r.mean;
}

constexpr Timestamp kScanMin{std::numeric_limits<std::int64_t>::min()};
constexpr Timestamp kScanMax{std::numeric_limits<std::int64_t>::max()};

/// Points decoded per ChunkCursor::read: one default-sized chunk.
constexpr std::uint32_t kScanBatch = 512;

/// Decodes one chunk in batches and calls fn(ts, values, n) with its
/// points in [t0, t1).  A chunk wholly inside the range skips the test.
template <typename Fn>
void scan_chunk(ChunkCursor cursor, std::uint32_t count, std::int64_t min_ts,
                std::int64_t max_ts, Timestamp t0, Timestamp t1, Fn& fn) {
  if (count == 0 || max_ts < t0.ns || min_ts >= t1.ns) return;
  const bool inside = min_ts >= t0.ns && max_ts < t1.ns;
  std::int64_t ts[kScanBatch];
  double values[kScanBatch];
  while (std::uint32_t n = cursor.read(ts, values, kScanBatch)) {
    if (!inside) {
      std::uint32_t kept = 0;
      for (std::uint32_t i = 0; i < n; ++i) {
        ts[kept] = ts[i];
        values[kept] = values[i];
        kept += (ts[i] >= t0.ns && ts[i] < t1.ns) ? 1 : 0;
      }
      n = kept;
    }
    if (n != 0) fn(ts, values, n);
  }
}

}  // namespace

AggregateResult summarize(std::vector<std::uint64_t>& keys) {
  AggregateResult r;
  if (keys.empty()) return r;
  sort_by_key(keys, [](std::uint64_t k) { return k; });
  const std::size_t n = keys.size();
  auto value = [&](std::size_t i) { return from_order_key(keys[i]); };
  r.count = n;
  r.min = value(0);
  r.max = value(n - 1);
  double sum = 0.0;
  for (const std::uint64_t k : keys) sum += from_order_key(k);
  r.mean = sum / static_cast<double>(n);
  auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(n - 1);
    const std::size_t i = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(i);
    if (i + 1 < n) return value(i) * (1.0 - frac) + value(i + 1) * frac;
    return value(i);
  };
  r.median = quantile(0.5);
  r.p95 = quantile(0.95);
  r.p99 = quantile(0.99);
  return r;
}

TsdbEngine::TsdbEngine(TsdbOptions options) : options_(options) {
  const std::size_t want = std::clamp<std::size_t>(options_.shards, 1, 256);
  std::size_t n = 1;
  unsigned bits = 0;
  while (n < want) {
    n <<= 1;
    ++bits;
  }
  options_.shards = n;
  if (options_.chunk_points == 0) options_.chunk_points = 1;
  shard_shift_ = 32 - bits;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

TsdbEngine::SeriesStore& TsdbEngine::Shard::find_or_create(SeriesId sid) {
  if (sid >= stores.size()) stores.resize(sid + 1);
  if (stores[sid] == nullptr) stores[sid] = std::make_unique<SeriesStore>();
  return *stores[sid];
}

void TsdbEngine::append(SeriesId sid, Timestamp time, double value) {
  if (sid == SeriesIndex::kNotFound) return;
  Shard& sh = shard_of(sid);
  {
    std::lock_guard lock(sh.mu);
    SeriesStore& st = sh.find_or_create(sid);
    const std::int64_t part = options_.partition.ns;
    const std::int64_t partition = part > 0 ? floor_div(time.ns, part) : 0;
    if (st.open.count() != 0 && partition != st.partition) {
      if (auto sealed = st.open.seal()) st.sealed.push_back(std::move(sealed));
    }
    st.partition = partition;
    st.open.append(time, value);
    if (st.open.count() >= options_.chunk_points) {
      if (auto sealed = st.open.seal()) st.sealed.push_back(std::move(sealed));
    }
  }
  points_.fetch_add(1, std::memory_order_relaxed);
  // WAL mirror happens outside the shard lock; the index's name and
  // canonical-tag storage is stable for the engine's lifetime.
  if (wal_ != nullptr) {
    wal_->append(index_.name(index_.measurement_id(sid)), index_.canonical(sid), time, value);
  }
}

void TsdbEngine::snapshot_series(SeriesId sid, SeriesSnapshot& out) const {
  out.sealed.clear();
  out.open_bytes.clear();
  out.open_count = 0;
  const Shard& sh = shard_of(sid);
  std::lock_guard lock(sh.mu);
  const SeriesStore* st = sh.find(sid);
  if (st == nullptr) return;
  out.sealed.assign(st->sealed.begin(), st->sealed.end());
  out.open_count = st->open.snapshot(out.open_bytes);
  out.open_min = st->open.min_ts();
  out.open_max = st->open.max_ts();
}

template <typename Fn>
void TsdbEngine::scan(const SeriesSnapshot& snap, Timestamp t0, Timestamp t1, Fn&& fn) {
  for (const auto& chunk : snap.sealed) {
    scan_chunk(ChunkCursor(*chunk), chunk->count, chunk->min_ts, chunk->max_ts, t0, t1, fn);
  }
  scan_chunk(ChunkCursor(snap.open_bytes.data(), snap.open_bytes.size(), snap.open_count),
             snap.open_count, snap.open_min, snap.open_max, t0, t1, fn);
}

bool TsdbEngine::matching_series(const std::string& measurement, const TagSet& filter,
                                 std::vector<SeriesId>& out) const {
  const std::uint32_t mid = index_.find_name(measurement);
  if (mid == SeriesIndex::kNotFound) return false;
  const TagFilter tf = index_.make_filter(filter);
  if (tf.impossible) return false;
  std::vector<SeriesId> all;
  index_.series_of(mid, all);
  out.reserve(all.size());
  for (const SeriesId sid : all) {
    if (index_.matches(sid, tf)) out.push_back(sid);
  }
  return true;
}

AggregateResult TsdbEngine::aggregate(const std::string& measurement, const TagSet& filter,
                                      Timestamp t0, Timestamp t1) const {
  std::vector<std::uint64_t> keys;
  std::vector<SeriesId> sids;
  if (matching_series(measurement, filter, sids)) {
    SeriesSnapshot snap;
    for (const SeriesId sid : sids) {
      snapshot_series(sid, snap);
      scan(snap, t0, t1, [&](const std::int64_t*, const double* values, std::size_t n) {
        append_keys(keys, values, n);
      });
    }
  }
  return summarize(keys);
}

std::vector<WindowResult> TsdbEngine::window_aggregate(const std::string& measurement,
                                                       const TagSet& filter, Timestamp t0,
                                                       Timestamp t1, Duration step) const {
  std::vector<WindowResult> out;
  if (step.ns <= 0 || t1.ns <= t0.ns) return out;
  // Unsigned offsets from t0: t1 - t0 may exceed INT64_MAX.
  const auto origin = static_cast<std::uint64_t>(t0.ns);
  const auto width = static_cast<std::uint64_t>(step.ns);
  std::vector<BucketedKey> points;
  std::vector<SeriesId> sids;
  if (matching_series(measurement, filter, sids)) {
    SeriesSnapshot snap;
    // Consecutive points mostly share a window: divide only on leaving it.
    std::uint64_t window = 0;
    std::uint64_t window_lo = 0;
    for (const SeriesId sid : sids) {
      snapshot_series(sid, snap);
      scan(snap, t0, t1, [&](const std::int64_t* ts, const double* values, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t off = static_cast<std::uint64_t>(ts[i]) - origin;
          if (off - window_lo >= width) {
            window = off / width;
            window_lo = window * width;
          }
          points.push_back(BucketedKey{window, order_key(values[i])});
        }
      });
    }
  }
  summarize_buckets(points, [&](std::uint64_t window, const AggregateResult& stats) {
    out.push_back(WindowResult{Timestamp{static_cast<std::int64_t>(origin + window * width)},
                               stats});
  });
  return out;
}

std::vector<GroupResult> TsdbEngine::group_by(const std::string& measurement,
                                              const std::string& tag_key, const TagSet& filter,
                                              Timestamp t0, Timestamp t1) const {
  std::vector<GroupResult> out;
  std::vector<SeriesId> sids;
  const std::uint32_t key_id = index_.find_name(tag_key);
  if (key_id == SeriesIndex::kNotFound || !matching_series(measurement, filter, sids)) return out;
  // Series grouped by interned tag-value id; names are compared once, at output.
  std::vector<std::pair<std::uint32_t, SeriesId>> by_value;
  for (const SeriesId sid : sids) {
    const std::uint32_t vid = index_.tag_value_id(sid, key_id);
    if (vid != SeriesIndex::kNotFound) by_value.emplace_back(vid, sid);
  }
  std::sort(by_value.begin(), by_value.end());
  SeriesSnapshot snap;
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < by_value.size();) {
    const std::uint32_t vid = by_value[i].first;
    bool resident = false;
    keys.clear();
    for (; i < by_value.size() && by_value[i].first == vid; ++i) {
      snapshot_series(by_value[i].second, snap);
      // The oracle creates the (possibly empty) group for every
      // resident series; series whose points were fully dropped by
      // retention are not resident there, so skip empty snapshots.
      if (snap.sealed.empty() && snap.open_count == 0) continue;
      resident = true;
      scan(snap, t0, t1, [&](const std::int64_t*, const double* values, std::size_t n) {
        append_keys(keys, values, n);
      });
    }
    if (resident) out.push_back(GroupResult{std::string(index_.name(vid)), summarize(keys)});
  }
  // The oracle's std::map order: groups sorted by tag value.
  std::sort(out.begin(), out.end(),
            [](const GroupResult& a, const GroupResult& b) { return a.tag_value < b.tag_value; });
  return out;
}

std::size_t TsdbEngine::downsample(const std::string& src, const std::string& dst,
                                   Duration window, const std::string& stat) {
  if (window.ns <= 0 || src == dst) return 0;
  const std::uint32_t mid = index_.find_name(src);
  if (mid == SeriesIndex::kNotFound) return 0;
  std::vector<SeriesId> sids;
  index_.series_of(mid, sids);

  struct Out {
    SeriesId src_sid;
    Timestamp time;
    double value;
  };
  std::vector<Out> pending;
  SeriesSnapshot snap;
  std::vector<BucketedKey> points;
  // Window indices are signed; flipping the sign bit keeps their order as u64.
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  for (const SeriesId sid : sids) {
    snapshot_series(sid, snap);
    points.clear();
    scan(snap, kScanMin, kScanMax,
         [&](const std::int64_t* ts, const double* values, std::size_t n) {
           for (std::size_t i = 0; i < n; ++i) {
             const auto idx = static_cast<std::uint64_t>(floor_div(ts[i], window.ns));
             points.push_back(BucketedKey{idx ^ kSign, order_key(values[i])});
           }
         });
    summarize_buckets(points, [&](std::uint64_t bucket, const AggregateResult& r) {
      const auto idx = static_cast<std::int64_t>(bucket ^ kSign);
      // The one bucket whose aligned start lies below INT64_MIN starts there.
      const std::int64_t start = idx == floor_div(kScanMin.ns, window.ns) ? kScanMin.ns
                                                                           : idx * window.ns;
      pending.push_back(Out{sid, Timestamp{start}, pick_stat(r, stat)});
    });
  }
  // resolve_like re-keys the source tags under `dst` without strings.
  for (const auto& o : pending) append(index_.resolve_like(o.src_sid, dst), o.time, o.value);
  return pending.size();
}

std::size_t TsdbEngine::enforce_retention(Timestamp now, Duration horizon,
                                          const std::vector<std::string>& only_measurements) {
  const Timestamp cutoff = now - horizon;
  std::vector<std::uint32_t> only_mids;
  if (!only_measurements.empty()) {
    only_mids.reserve(only_measurements.size());
    for (const std::string& m : only_measurements) {
      const std::uint32_t mid = index_.find_name(m);
      if (mid != SeriesIndex::kNotFound) only_mids.push_back(mid);
    }
    if (only_mids.empty()) return 0;
  }

  std::size_t dropped = 0;
  Timestamp ts;
  double value = 0.0;
  for (auto& shard_ptr : shards_) {
    Shard& sh = *shard_ptr;
    std::lock_guard lock(sh.mu);
    for (SeriesId sid = 0; sid < sh.stores.size(); ++sid) {
      SeriesStore* st = sh.stores[sid].get();
      if (st == nullptr) continue;
      if (!only_mids.empty()) {
        const std::uint32_t mid = index_.measurement_id(sid);
        if (std::find(only_mids.begin(), only_mids.end(), mid) == only_mids.end()) continue;
      }

      // Whole sealed chunks below the cutoff drop in O(1); straddling
      // chunks are decoded, filtered, and resealed.
      std::vector<std::shared_ptr<const SealedChunk>> kept;
      kept.reserve(st->sealed.size());
      for (auto& chunk : st->sealed) {
        if (chunk->max_ts < cutoff.ns) {
          dropped += chunk->count;
          continue;
        }
        if (chunk->min_ts >= cutoff.ns) {
          kept.push_back(std::move(chunk));
          continue;
        }
        ChunkWriter rewrite;
        ChunkCursor cursor(*chunk);
        while (cursor.next(ts, value)) {
          if (ts.ns >= cutoff.ns) {
            rewrite.append(ts, value);
          } else {
            ++dropped;
          }
        }
        if (auto resealed = rewrite.seal()) kept.push_back(std::move(resealed));
      }
      st->sealed = std::move(kept);

      if (st->open.count() > 0 && st->open.min_ts() < cutoff.ns) {
        std::vector<std::uint8_t> bytes;
        const std::uint32_t n = st->open.snapshot(bytes);
        st->open.clear();
        ChunkCursor cursor(bytes.data(), bytes.size(), n);
        bool first = true;
        while (cursor.next(ts, value)) {
          if (ts.ns < cutoff.ns) {
            ++dropped;
            continue;
          }
          if (first && options_.partition.ns > 0) {
            st->partition = floor_div(ts.ns, options_.partition.ns);
          }
          first = false;
          st->open.append(ts, value);
        }
      }

      if (st->open.count() == 0 && st->sealed.empty()) sh.stores[sid].reset();
    }
  }
  return dropped;
}

std::size_t TsdbEngine::series_count() const {
  std::size_t n = 0;
  for (const auto& shard_ptr : shards_) {
    const Shard& sh = *shard_ptr;
    std::lock_guard lock(sh.mu);
    for (const auto& store : sh.stores) {
      if (store != nullptr) ++n;
    }
  }
  return n;
}

TsdbEngine::StorageStats TsdbEngine::storage_stats() const {
  StorageStats s;
  for (const auto& shard_ptr : shards_) {
    const Shard& sh = *shard_ptr;
    std::lock_guard lock(sh.mu);
    for (const auto& store : sh.stores) {
      if (store == nullptr) continue;
      for (const auto& chunk : store->sealed) {
        s.points += chunk->count;
        s.bytes += chunk->bytes.size();
        ++s.sealed_chunks;
      }
      if (store->open.count() > 0) {
        s.points += store->open.count();
        s.bytes += store->open.size_bytes();
        ++s.open_chunks;
      }
    }
  }
  return s;
}

}  // namespace ruru
