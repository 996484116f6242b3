#include "tsdb/query.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "tsdb/wal.hpp"

namespace ruru {

namespace {

/// Same arithmetic as the test oracle's summarize.  Sorting first makes the
/// result independent of collection order, which is what lets the
/// compressed engine match the uncompressed oracle bit for bit.
AggregateResult summarize(std::vector<double>& values) {
  AggregateResult r;
  if (values.empty()) return r;
  std::sort(values.begin(), values.end());
  r.count = values.size();
  r.min = values.front();
  r.max = values.back();
  double sum = 0.0;
  for (const double v : values) sum += v;
  r.mean = sum / static_cast<double>(values.size());
  auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t i = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(i);
    if (i + 1 < values.size()) return values[i] * (1.0 - frac) + values[i + 1] * frac;
    return values[i];
  };
  r.median = quantile(0.5);
  r.p95 = quantile(0.95);
  r.p99 = quantile(0.99);
  return r;
}

double pick_stat(const AggregateResult& r, const std::string& stat) {
  if (stat == "median") return r.median;
  if (stat == "min") return r.min;
  if (stat == "max") return r.max;
  if (stat == "p99") return r.p99;
  if (stat == "count") return static_cast<double>(r.count);
  return r.mean;
}

/// Floor division for w > 0 (window/partition indices of negative times).
constexpr std::int64_t floor_div(std::int64_t x, std::int64_t w) {
  return x >= 0 ? x / w : (x - w + 1) / w;
}

constexpr Timestamp kScanMin{std::numeric_limits<std::int64_t>::min()};
constexpr Timestamp kScanMax{std::numeric_limits<std::int64_t>::max()};

}  // namespace

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
    if (st.open.count() == 0) {
      st.partition_start = part > 0 ? floor_div(time.ns, part) * part : 0;
    } else if (part > 0 &&
               (time.ns < st.partition_start || time.ns - st.partition_start >= part)) {
      if (auto sealed = st.open.seal()) st.sealed.push_back(std::move(sealed));
      st.partition_start = floor_div(time.ns, part) * part;
    }
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
  Timestamp ts;
  double value = 0.0;
  for (const auto& chunk : snap.sealed) {
    if (chunk->count == 0 || chunk->max_ts < t0.ns || chunk->min_ts >= t1.ns) continue;
    ChunkCursor cursor(*chunk);
    while (cursor.next(ts, value)) {
      if (ts.ns >= t0.ns && ts.ns < t1.ns) fn(ts, value);
    }
  }
  if (snap.open_count > 0 && snap.open_max >= t0.ns && snap.open_min < t1.ns) {
    ChunkCursor cursor(snap.open_bytes.data(), snap.open_bytes.size(), snap.open_count);
    while (cursor.next(ts, value)) {
      if (ts.ns >= t0.ns && ts.ns < t1.ns) fn(ts, value);
    }
  }
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
  std::vector<double> values;
  std::vector<SeriesId> sids;
  if (matching_series(measurement, filter, sids)) {
    SeriesSnapshot snap;
    for (const SeriesId sid : sids) {
      snapshot_series(sid, snap);
      scan(snap, t0, t1, [&](Timestamp, double v) { values.push_back(v); });
    }
  }
  return summarize(values);
}

std::vector<WindowResult> TsdbEngine::window_aggregate(const std::string& measurement,
                                                       const TagSet& filter, Timestamp t0,
                                                       Timestamp t1, Duration step) const {
  std::vector<WindowResult> out;
  if (step.ns <= 0 || t1.ns <= t0.ns) return out;
  const auto nwindows = static_cast<std::size_t>((t1.ns - t0.ns + step.ns - 1) / step.ns);
  std::vector<std::vector<double>> buckets(nwindows);
  std::vector<SeriesId> sids;
  if (matching_series(measurement, filter, sids)) {
    SeriesSnapshot snap;
    for (const SeriesId sid : sids) {
      snapshot_series(sid, snap);
      scan(snap, t0, t1, [&](Timestamp ts, double v) {
        buckets[static_cast<std::size_t>((ts.ns - t0.ns) / step.ns)].push_back(v);
      });
    }
  }
  for (std::size_t i = 0; i < nwindows; ++i) {
    if (buckets[i].empty()) continue;
    WindowResult w;
    w.window_start = Timestamp{t0.ns + static_cast<std::int64_t>(i) * step.ns};
    w.stats = summarize(buckets[i]);
    out.push_back(std::move(w));
  }
  return out;
}

std::vector<GroupResult> TsdbEngine::group_by(const std::string& measurement,
                                              const std::string& tag_key, const TagSet& filter,
                                              Timestamp t0, Timestamp t1) const {
  // std::map keys keep the oracle's ordering: groups sorted by tag value.
  std::map<std::string, std::vector<double>> groups;
  std::vector<SeriesId> sids;
  const std::uint32_t key_id = index_.find_name(tag_key);
  if (key_id != SeriesIndex::kNotFound && matching_series(measurement, filter, sids)) {
    SeriesSnapshot snap;
    for (const SeriesId sid : sids) {
      const std::uint32_t vid = index_.tag_value_id(sid, key_id);
      if (vid == SeriesIndex::kNotFound) continue;
      snapshot_series(sid, snap);
      // The oracle creates the (possibly empty) group for every
      // resident series; series whose points were fully dropped by
      // retention are not resident there, so skip empty snapshots.
      if (snap.sealed.empty() && snap.open_count == 0) continue;
      auto& values = groups[std::string(index_.name(vid))];
      scan(snap, t0, t1, [&](Timestamp, double v) { values.push_back(v); });
    }
  }
  std::vector<GroupResult> out;
  out.reserve(groups.size());
  for (auto& [value, samples] : groups) {
    GroupResult g;
    g.tag_value = value;
    g.stats = summarize(samples);
    out.push_back(std::move(g));
  }
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
  for (const SeriesId sid : sids) {
    snapshot_series(sid, snap);
    std::map<std::int64_t, std::vector<double>> buckets;
    scan(snap, kScanMin, kScanMax,
         [&](Timestamp ts, double v) { buckets[floor_div(ts.ns, window.ns)].push_back(v); });
    for (auto& [idx, values] : buckets) {
      const AggregateResult r = summarize(values);
      pending.push_back(Out{sid, Timestamp{idx * window.ns}, pick_stat(r, stat)});
    }
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
            st->partition_start =
                floor_div(ts.ns, options_.partition.ns) * options_.partition.ns;
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
