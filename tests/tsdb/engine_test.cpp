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

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
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

TEST(EngineParity, LargeGroupsAndWindowsMatch) {
  // 120k points: every aggregate and group and most windows hold
  // thousands of values, so they are ordered by the radix sort rather
  // than the small-input std::sort, and must still match the oracle.
  TimeSeriesDb legacy;
  TsdbEngine engine;
  load_random(legacy, engine, 0xB16, 120'000, 1'000'000);
  expect_parity(legacy, engine, Timestamp{0}, Timestamp{1'000'000});
}

/// The oracle's arithmetic on std::sort's order.
AggregateResult sorted_stats(std::vector<double> values) {
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

AggregateResult summarize_values(const std::vector<double>& values) {
  std::vector<std::uint64_t> keys;
  for (const double v : values) keys.push_back(order_key(v));
  return summarize(keys);
}

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bit-for-bit: a NaN mean from inf + -inf must be the same NaN.
void expect_same_bits(const AggregateResult& a, const AggregateResult& b, const std::string& what) {
  EXPECT_EQ(a.count, b.count) << what;
  EXPECT_EQ(bits_of(a.min), bits_of(b.min)) << what;
  EXPECT_EQ(bits_of(a.max), bits_of(b.max)) << what;
  EXPECT_EQ(bits_of(a.mean), bits_of(b.mean)) << what;
  EXPECT_EQ(bits_of(a.median), bits_of(b.median)) << what;
  EXPECT_EQ(bits_of(a.p95), bits_of(b.p95)) << what;
  EXPECT_EQ(bits_of(a.p99), bits_of(b.p99)) << what;
}

TEST(Summarize, MatchesStdSortOnEitherSideOfTheCutoff) {
  // Below a fixed size summarize() sorts with std::sort, above it with
  // the radix sort; both must accumulate in std::sort's order.
  // Negatives, subnormals, +-inf, +0.0 and repeats; no NaN and no -0.0,
  // where std::sort's order is undefined or arbitrary.
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  Pcg32 rng(0x50F7);
  for (const std::size_t n : {1u, 2u, 3u, 100u, 255u, 256u, 257u, 1'000u, 4'096u, 100'000u}) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<double> values(n);
      for (double& v : values) {
        switch (rng.bounded(8)) {
          case 0: v = rng.uniform(-1e6, 1e6); break;
          case 1: v = tiny * static_cast<double>(rng.bounded(1000)); break;  // subnormal or +0.0
          case 2: v = -tiny * static_cast<double>(1 + rng.bounded(1000)); break;
          case 3: v = rng.chance(0.5) ? inf : -inf; break;
          case 4: v = static_cast<double>(rng.bounded(5)) - 2.5; break;         // repeats
          case 5:  // any normal magnitude
            v = std::ldexp(rng.uniform(1.0, 2.0), static_cast<int>(rng.bounded(2000)) - 1000);
            break;
          default: v = static_cast<double>(80'000'000 + rng.bounded(220'000'000)) / 1e6; break;
        }
      }
      // Trial 0 without infinities, so the mean stays finite.
      if (trial == 0) {
        std::replace_if(values.begin(), values.end(), [](double v) { return std::isinf(v); }, 1.5);
      }
      expect_same_bits(summarize_values(values), sorted_stats(values),
                       "n " + std::to_string(n) + " trial " + std::to_string(trial));
    }
  }
}

TEST(Summarize, NegativeZeroSortsBeforePositiveZero) {
  // std::sort leaves -0.0 and +0.0 in arbitrary relative order; the
  // totalOrder key puts every -0.0 first.
  for (const std::size_t n : {4u, 1'000u}) {
    std::vector<double> values;
    for (std::size_t i = 0; i < n; ++i) values.push_back(i % 2 == 0 ? 0.0 : -0.0);
    const AggregateResult r = summarize_values(values);
    EXPECT_EQ(r.count, n);
    EXPECT_TRUE(std::signbit(r.min)) << n;
    EXPECT_FALSE(std::signbit(r.max)) << n;
    EXPECT_EQ(r.mean, 0.0);
  }
  const AggregateResult r = summarize_values({0.0, -0.0, 1.0, -0.0, 0.0});
  EXPECT_TRUE(std::signbit(r.min));
  EXPECT_EQ(r.max, 1.0);
  EXPECT_FALSE(std::signbit(r.median));  // sorted: -0, -0, +0, +0, 1
}

TEST(Summarize, NanSortsByTotalOrder) {
  // -NaN sorts below -inf and +NaN above +inf; the stats that read only
  // ordinary values stay ordinary.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  AggregateResult r = summarize_values({3.0, nan, 1.0, 2.0});
  EXPECT_EQ(r.count, 4u);
  EXPECT_EQ(r.min, 1.0);
  EXPECT_TRUE(std::isnan(r.max));
  EXPECT_TRUE(std::isnan(r.mean));
  EXPECT_EQ(r.median, 2.5);  // between 2.0 and 3.0
  EXPECT_TRUE(std::isnan(r.p99));

  r = summarize_values({2.0, nan, 1.0, -nan, 3.0, -std::numeric_limits<double>::infinity()});
  EXPECT_TRUE(std::isnan(r.min) && std::signbit(r.min));
  EXPECT_TRUE(std::isnan(r.max) && !std::signbit(r.max));
  EXPECT_EQ(r.median, 1.5);  // sorted: -NaN, -inf, 1, 2, 3, NaN

  // The engine returns the same through the chunk codec.
  TsdbEngine engine;
  const SeriesId sid = engine.series("m", TagSet{});
  std::int64_t t = 0;
  for (const double v : {2.0, nan, 1.0, -nan, 3.0, -std::numeric_limits<double>::infinity()}) {
    engine.append(sid, Timestamp{t++}, v);
  }
  expect_same_bits(engine.aggregate("m", TagSet{}, Timestamp{0}, Timestamp{t}), r, "engine");
}

/// A window computed the slow way: index and start in 128-bit arithmetic.
struct ExpectedWindow {
  std::int64_t start;
  std::vector<double> values;
};

using TimedValues = std::vector<std::pair<std::int64_t, double>>;

std::vector<ExpectedWindow> brute_force_windows(const TimedValues& points, std::int64_t t0,
                                                std::int64_t t1, std::int64_t step) {
  std::map<__int128, std::vector<double>> by_index;
  for (const auto& [ts, v] : points) {
    if (ts < t0 || ts >= t1) continue;
    by_index[(static_cast<__int128>(ts) - t0) / step].push_back(v);
  }
  std::vector<ExpectedWindow> out;
  for (auto& [index, values] : by_index) {
    out.push_back({static_cast<std::int64_t>(t0 + index * step), values});
  }
  return out;
}

void expect_windows(const TimedValues& points, std::int64_t t0, std::int64_t t1,
                    std::int64_t step) {
  TsdbEngine engine;
  const SeriesId sid = engine.series("m", TagSet{});
  for (const auto& [ts, v] : points) engine.append(sid, Timestamp{ts}, v);
  const auto got =
      engine.window_aggregate("m", TagSet{}, Timestamp{t0}, Timestamp{t1}, Duration{step});
  const auto want = brute_force_windows(points, t0, t1, step);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].window_start.ns, want[i].start) << "window " << i;
    expect_same_bits(got[i].stats, sorted_stats(want[i].values), "window " + std::to_string(i));
  }
}

TEST(EngineWindows, WholePositiveRangeAtOneNanosecondCostsPerPoint) {
  // 2^63 - 1 one-ns windows over a 3-point store: the answer is the 3
  // occupied windows, without storage for the empty ones.
  const TimedValues points = {
      {5, 1.0}, {1'000'000'000, 2.0}, {std::numeric_limits<std::int64_t>::max() - 1, 3.0}};
  expect_windows(points, 0, std::numeric_limits<std::int64_t>::max(), 1);
}

TEST(EngineWindows, WholeTimelineAtOneHourStepHasCorrectStarts) {
  // t1 - t0 overflows int64 here; window indices and starts do not.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kHour = 3'600'000'000'000;
  const TimedValues points = {{kMin + kHour, 1.0},     {kMin + kHour + 1, 2.0},
                              {kMin + 2 * kHour - 1, 3.0}, {-kHour - 1, 4.0},
                              {-1, 5.0},              {0, 6.0},
                              {kHour - 1, 7.0},       {kHour, 8.0},
                              {kMax / 2, 9.0},        {kMax - kHour, 10.0},
                              {kMax - 1, 11.0},       {kMax, 12.0}};
  expect_windows(points, kMin, kMax, kHour);
  expect_windows(points, kMin + 17, kMax - 17, kHour);
}

// Time partitioning keeps a partition index per series, so appends and
// downsampling hold at both ends of the int64 timeline.
constexpr std::int64_t kMinNs = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMaxNs = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kHourNs = 3'600'000'000'000;

TEST(EngineTimeline, AppendNearInt64MinStaysInOnePartition) {
  // The 600 s partition holding INT64_MIN + 5 starts below INT64_MIN.
  TsdbEngine engine;
  const SeriesId sid = engine.series("m", TagSet{});
  engine.append(sid, Timestamp{kMinNs + 5}, 1.0);
  engine.append(sid, Timestamp{kMinNs + 6}, 2.0);
  const auto stats = engine.storage_stats();
  EXPECT_EQ(stats.points, 2u);
  EXPECT_EQ(stats.sealed_chunks, 0u);
  const auto r = engine.aggregate("m", TagSet{}, Timestamp{kMinNs}, Timestamp{kMinNs + 7});
  EXPECT_EQ(r.count, 2u);
  EXPECT_EQ(r.min, 1.0);
  EXPECT_EQ(r.max, 2.0);
}

TEST(EngineTimeline, OneSeriesSpansBothEndsOfTheTimeline) {
  // -1 h to INT64_MAX is further apart than INT64_MAX: each jump starts
  // a new partition and seals the open chunk.
  TsdbEngine engine;
  const SeriesId sid = engine.series("m", TagSet{});
  engine.append(sid, Timestamp{-kHourNs}, 1.0);
  engine.append(sid, Timestamp{kMaxNs}, 2.0);
  engine.append(sid, Timestamp{kMinNs}, 3.0);
  const auto stats = engine.storage_stats();
  EXPECT_EQ(stats.points, 3u);
  EXPECT_EQ(stats.sealed_chunks, 2u);
  // [INT64_MIN, INT64_MAX) holds every point but the one at INT64_MAX.
  const auto r = engine.aggregate("m", TagSet{}, Timestamp{kMinNs}, Timestamp{kMaxNs});
  EXPECT_EQ(r.count, 2u);
  EXPECT_EQ(r.min, 1.0);
  EXPECT_EQ(r.max, 3.0);
}

TEST(EngineTimeline, DownsampleBucketBelowInt64MinStartsThere) {
  // A 10^6 h window's bucket holding INT64_MIN + 1 starts below
  // INT64_MIN; its point is written at INT64_MIN.  Other buckets keep
  // their aligned starts.
  TsdbEngine engine;
  const SeriesId sid = engine.series("m", TagSet{});
  engine.append(sid, Timestamp{kMinNs + 1}, 4.0);
  engine.append(sid, Timestamp{kMinNs + 2}, 6.0);
  engine.append(sid, Timestamp{-1}, 8.0);
  const Duration window{1'000'000 * kHourNs};
  EXPECT_EQ(engine.downsample("m", "m_mean", window, "mean"), 2u);
  const auto lowest =
      engine.aggregate("m_mean", TagSet{}, Timestamp{kMinNs}, Timestamp{kMinNs + 1});
  EXPECT_EQ(lowest.count, 1u);
  EXPECT_EQ(lowest.mean, 5.0);
  const auto last =
      engine.aggregate("m_mean", TagSet{}, Timestamp{-window.ns}, Timestamp{-window.ns + 1});
  EXPECT_EQ(last.count, 1u);
  EXPECT_EQ(last.mean, 8.0);
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
