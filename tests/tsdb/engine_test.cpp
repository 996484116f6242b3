// TsdbEngine oracle parity: the engine must answer every query
// bit-for-bit identically to the uncompressed TimeSeriesDb test oracle
// (tests/oracle) when both receive the same write sequence.
// summarize() sorts before accumulating on both sides and the chunk
// codec is exact, so EXPECT_EQ on doubles is the honest assertion — any
// epsilon would hide a codec or scan bug.  chunk_points=4 and a narrow
// time partition force seal boundaries mid-stream; retention forces
// straddling-chunk rewrites.

#include "tsdb/query.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "oracle/legacy_tsdb.hpp"
#include "util/random.hpp"

namespace ruru {
namespace {

const char* const kMeasurements[] = {"total_ms", "internal_ms", "external_ms"};
const char* const kCities[] = {"AKL", "WLG", "LA", "?"};

TagSet make_tags(std::uint32_t src, std::uint32_t dst) {
  TagSet t;
  t.add("src_city", kCities[src % 4]).add("dst_city", kCities[dst % 4]);
  return t;
}

void expect_same_aggregate(const AggregateResult& a, const AggregateResult& b,
                           const std::string& what) {
  EXPECT_EQ(a.count, b.count) << what;
  EXPECT_EQ(a.min, b.min) << what;
  EXPECT_EQ(a.max, b.max) << what;
  EXPECT_EQ(a.mean, b.mean) << what;
  EXPECT_EQ(a.median, b.median) << what;
  EXPECT_EQ(a.p95, b.p95) << what;
  EXPECT_EQ(a.p99, b.p99) << what;
}

/// Runs the full query battery on both stores and requires identical
/// answers: aggregates over several ranges and filters, windowed
/// aggregates, and group_by on every tag key (plus an unknown one).
void expect_parity(const TimeSeriesDb& legacy, const TsdbEngine& engine, Timestamp t0,
                   Timestamp t1) {
  EXPECT_EQ(legacy.series_count(), engine.series_count());

  std::vector<TagSet> filters;
  filters.emplace_back();
  filters.push_back(TagSet{}.add("src_city", "AKL"));
  filters.push_back(TagSet{}.add("dst_city", "?"));
  filters.push_back(make_tags(0, 2));
  filters.push_back(TagSet{}.add("src_city", "nowhere"));  // never interned

  const Timestamp mid{(t0.ns + t1.ns) / 2};
  const std::vector<std::pair<Timestamp, Timestamp>> ranges = {
      {t0, t1}, {t0, mid}, {mid, t1}, {t1, t0},  // inverted -> empty
      {Timestamp{t0.ns - 50}, Timestamp{t1.ns + 50}}};

  for (const char* m : kMeasurements) {
    for (std::size_t fi = 0; fi < filters.size(); ++fi) {
      for (const auto& [lo, hi] : ranges) {
        const std::string what = std::string(m) + " filter#" + std::to_string(fi) + " [" +
                                 std::to_string(lo.ns) + "," + std::to_string(hi.ns) + ")";
        expect_same_aggregate(legacy.aggregate(m, filters[fi], lo, hi),
                              engine.aggregate(m, filters[fi], lo, hi), what);

        const Duration step{(hi.ns - lo.ns) / 7 + 3};
        const auto lw = legacy.window_aggregate(m, filters[fi], lo, hi, step);
        const auto ew = engine.window_aggregate(m, filters[fi], lo, hi, step);
        ASSERT_EQ(lw.size(), ew.size()) << what;
        for (std::size_t i = 0; i < lw.size(); ++i) {
          EXPECT_EQ(lw[i].window_start.ns, ew[i].window_start.ns) << what << " win " << i;
          expect_same_aggregate(lw[i].stats, ew[i].stats, what + " win " + std::to_string(i));
        }
      }
    }
    for (const char* key : {"src_city", "dst_city", "no_such_key"}) {
      const auto lg = legacy.group_by(m, key, TagSet{}, t0, t1);
      const auto eg = engine.group_by(m, key, TagSet{}, t0, t1);
      ASSERT_EQ(lg.size(), eg.size()) << m << " group_by " << key;
      for (std::size_t i = 0; i < lg.size(); ++i) {
        EXPECT_EQ(lg[i].tag_value, eg[i].tag_value) << m << " group_by " << key;
        expect_same_aggregate(lg[i].stats, eg[i].stats,
                              std::string(m) + " group_by " + key + "=" + lg[i].tag_value);
      }
    }
  }
}

/// Same pseudo-random write sequence into both stores.
void load_random(TimeSeriesDb& legacy, TsdbEngine& engine, std::uint64_t seed, int n,
                 std::int64_t t_span) {
  Pcg32 rng(seed);
  for (int i = 0; i < n; ++i) {
    const char* m = kMeasurements[rng.bounded(3)];
    const TagSet tags = make_tags(rng.bounded(4), rng.bounded(4));
    const Timestamp t{static_cast<std::int64_t>(rng.next_u64() % static_cast<std::uint64_t>(t_span))};
    const double v = rng.chance(0.1) ? static_cast<double>(rng.bounded(100))  // repeats
                                     : rng.uniform(0.0, 500.0);
    legacy.write(m, tags, t, v);
    engine.write(m, tags, t, v);
  }
}

TEST(EngineParity, EmptyStores) {
  TimeSeriesDb legacy;
  TsdbEngine engine;
  expect_parity(legacy, engine, Timestamp{0}, Timestamp{1000});
  EXPECT_EQ(engine.points_written(), 0u);
  EXPECT_EQ(engine.storage_stats().points, 0u);
}

TEST(EngineParity, RandomizedWorkloadAcrossSealBoundaries) {
  TimeSeriesDb legacy;
  // Tiny chunks + narrow partitions: most series end up with several
  // sealed chunks plus an open tail, so scans cross every boundary kind.
  TsdbEngine engine(TsdbOptions{4, 4, Duration::from_ns(10'000)});
  load_random(legacy, engine, 0xA11CE, 4'000, 100'000);
  expect_parity(legacy, engine, Timestamp{0}, Timestamp{100'000});
  EXPECT_EQ(engine.points_written(), 4'000u);
  EXPECT_EQ(engine.storage_stats().points, 4'000u);
  EXPECT_GT(engine.storage_stats().sealed_chunks, 0u);
}

TEST(EngineParity, SingleShardAndManyShardsAgree) {
  TimeSeriesDb legacy;
  TsdbEngine one(TsdbOptions{1, 4, Duration::from_ns(10'000)});
  TsdbEngine many(TsdbOptions{64, 7, Duration::from_ns(25'000)});
  Pcg32 rng(99);
  for (int i = 0; i < 2'000; ++i) {
    const char* m = kMeasurements[rng.bounded(3)];
    const TagSet tags = make_tags(rng.bounded(4), rng.bounded(4));
    const Timestamp t{static_cast<std::int64_t>(rng.next_u64() % 100'000)};
    const double v = rng.uniform(0.0, 500.0);
    legacy.write(m, tags, t, v);
    one.write(m, tags, t, v);
    many.write(m, tags, t, v);
  }
  expect_parity(legacy, one, Timestamp{0}, Timestamp{100'000});
  expect_parity(legacy, many, Timestamp{0}, Timestamp{100'000});
}

TEST(EngineParity, HotPathAppendMatchesLegacyWrite) {
  TimeSeriesDb legacy;
  TsdbEngine engine(TsdbOptions{8, 16, Duration::from_ns(50'000)});
  // Resolve once, append per point — the pipeline's route-cache path.
  const TagSet tags = make_tags(0, 1);
  const SeriesId sid = engine.series("total_ms", tags);
  Pcg32 rng(5);
  for (int i = 0; i < 1'000; ++i) {
    const Timestamp t{i * 97};
    const double v = rng.uniform(0.0, 250.0);
    legacy.write("total_ms", tags, t, v);
    engine.append(sid, t, v);
  }
  expect_parity(legacy, engine, Timestamp{0}, Timestamp{1'000 * 97});
}

TEST(EngineParity, DownsamplePreservesContract) {
  for (const char* stat : {"mean", "median", "min", "max", "count", "p99"}) {
    TimeSeriesDb legacy;
    TsdbEngine engine(TsdbOptions{4, 4, Duration::from_ns(10'000)});
    load_random(legacy, engine, 0xD5, 1'500, 60'000);
    const std::size_t lw = legacy.downsample("total_ms", "total_1m", Duration{7'000}, stat);
    const std::size_t ew = engine.downsample("total_ms", "total_1m", Duration{7'000}, stat);
    EXPECT_EQ(lw, ew) << stat;
    expect_parity(legacy, engine, Timestamp{0}, Timestamp{60'000});
    // The rollup measurement itself must agree too.
    expect_same_aggregate(
        legacy.aggregate("total_1m", TagSet{}, Timestamp{0}, Timestamp{60'000}),
        engine.aggregate("total_1m", TagSet{}, Timestamp{0}, Timestamp{60'000}),
        std::string("downsampled ") + stat);
  }
}

TEST(EngineParity, RetentionDropsIdentically) {
  TimeSeriesDb legacy;
  TsdbEngine engine(TsdbOptions{4, 4, Duration::from_ns(10'000)});
  load_random(legacy, engine, 0x7EE, 3'000, 100'000);

  // Cutoff mid-range: whole-chunk drops, straddling-chunk rewrites and
  // open-chunk rewrites all occur.
  const Timestamp now{100'000};
  const std::size_t ld = legacy.enforce_retention(now, Duration{60'000});
  const std::size_t ed = engine.enforce_retention(now, Duration{60'000});
  EXPECT_EQ(ld, ed);
  EXPECT_GT(ed, 0u);
  expect_parity(legacy, engine, Timestamp{0}, Timestamp{100'000});
  EXPECT_EQ(engine.storage_stats().points, 3'000u - ed);

  // Scoped retention: only one measurement is trimmed further.
  const std::size_t ld2 = legacy.enforce_retention(now, Duration{20'000}, {"total_ms"});
  const std::size_t ed2 = engine.enforce_retention(now, Duration{20'000}, {"total_ms"});
  EXPECT_EQ(ld2, ed2);
  expect_parity(legacy, engine, Timestamp{0}, Timestamp{100'000});

  // Scoped to a measurement neither store has: a no-op on both.
  EXPECT_EQ(legacy.enforce_retention(now, Duration{1}, {"ghost"}),
            engine.enforce_retention(now, Duration{1}, {"ghost"}));
  expect_parity(legacy, engine, Timestamp{0}, Timestamp{100'000});
}

TEST(EngineParity, RetentionToEmptyAndRefill) {
  TimeSeriesDb legacy;
  TsdbEngine engine(TsdbOptions{2, 4, Duration::from_ns(5'000)});
  load_random(legacy, engine, 3, 500, 10'000);

  // Horizon 0 at t=far-future empties every series; legacy erases the
  // series, the engine must report the same series_count and empty
  // group_by afterwards.
  const std::size_t ld = legacy.enforce_retention(Timestamp{1'000'000}, Duration{0});
  const std::size_t ed = engine.enforce_retention(Timestamp{1'000'000}, Duration{0});
  EXPECT_EQ(ld, ed);
  EXPECT_EQ(ld, 500u);
  expect_parity(legacy, engine, Timestamp{0}, Timestamp{1'000'000});
  EXPECT_EQ(engine.series_count(), 0u);
  EXPECT_EQ(engine.storage_stats().points, 0u);

  // Refill after the wipe: series identities revive cleanly.
  load_random(legacy, engine, 4, 500, 10'000);
  expect_parity(legacy, engine, Timestamp{0}, Timestamp{1'000'000});
}

TEST(EngineStorage, CompressionBeatsRawOnSteadyCadence) {
  TsdbEngine engine(TsdbOptions{4, 512, Duration::from_sec(600.0)});
  const SeriesId sid = engine.series("rtt_ms", TagSet{}.add("src_city", "AKL"));
  Pcg32 rng(11);
  double ms = 100.0;
  for (int i = 0; i < 20'000; ++i) {
    // 1s cadence; the gauge moves in small sub-ms steps ~30% of the
    // time and repeats otherwise — the monitoring shape the sealed
    // format is sized for.
    if (rng.chance(0.3)) {
      ms += (static_cast<double>(rng.bounded(7)) - 3.0) * 0.125;
    }
    engine.append(sid, Timestamp::from_ns(i * 1'000'000'000LL), ms);
  }
  const auto stats = engine.storage_stats();
  EXPECT_EQ(stats.points, 20'000u);
  EXPECT_LT(stats.bytes_per_point(), 2.0);  // >= 8x vs the 16-byte DataPoint
}

TEST(EngineOptions, DegenerateOptionsStillCorrect) {
  TimeSeriesDb legacy;
  // chunk_points=1 seals every append; partition<=0 disables time
  // partitioning; shards clamp from 0 to 1.
  TsdbEngine engine(TsdbOptions{0, 1, Duration{0}});
  load_random(legacy, engine, 21, 800, 50'000);
  expect_parity(legacy, engine, Timestamp{0}, Timestamp{50'000});
}

}  // namespace
}  // namespace ruru
