// TagSet semantics plus the Tsdb.* suite: the test oracle's own tests
// (tests/oracle), so the store the engine parity suite trusts is
// itself checked against hand-computed and brute-force answers.

#include "tsdb/tsdb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "oracle/legacy_tsdb.hpp"
#include "util/random.hpp"

namespace ruru {
namespace {

TagSet tags(std::string src, std::string dst) {
  TagSet t;
  t.add("src_city", std::move(src)).add("dst_city", std::move(dst));
  return t;
}

TEST(TagSet, CanonicalIsSortedByKey) {
  TagSet t;
  t.add("zeta", "1").add("alpha", "2");
  EXPECT_EQ(t.canonical(), "alpha=2,zeta=1");
}

TEST(TagSet, MatchesSubset) {
  const TagSet t = tags("Auckland", "Los Angeles");
  TagSet filter;
  filter.add("src_city", "Auckland");
  EXPECT_TRUE(t.matches(filter));
  filter.add("dst_city", "London");
  EXPECT_FALSE(t.matches(filter));
  EXPECT_TRUE(t.matches(TagSet{}));  // empty filter matches all
}

TEST(TagSet, GetByKey) {
  const TagSet t = tags("A", "B");
  EXPECT_EQ(t.get("src_city").value(), "A");
  EXPECT_FALSE(t.get("nope").has_value());
}

TEST(Tsdb, AggregateBasicStats) {
  TimeSeriesDb db;
  const TagSet t = tags("Auckland", "Los Angeles");
  for (int i = 1; i <= 100; ++i) {
    db.write("total_ms", t, Timestamp::from_ms(i), static_cast<double>(i));
  }
  const auto r = db.aggregate("total_ms", TagSet{}, Timestamp{}, Timestamp::from_sec(10));
  EXPECT_EQ(r.count, 100u);
  EXPECT_DOUBLE_EQ(r.min, 1.0);
  EXPECT_DOUBLE_EQ(r.max, 100.0);
  EXPECT_DOUBLE_EQ(r.mean, 50.5);
  EXPECT_DOUBLE_EQ(r.median, 50.5);  // interpolated
  EXPECT_NEAR(r.p95, 95.05, 0.01);
}

TEST(Tsdb, TimeRangeIsHalfOpen) {
  TimeSeriesDb db;
  const TagSet t = tags("A", "B");
  db.write("m", t, Timestamp::from_ms(10), 1.0);
  db.write("m", t, Timestamp::from_ms(20), 2.0);
  const auto r = db.aggregate("m", TagSet{}, Timestamp::from_ms(10), Timestamp::from_ms(20));
  EXPECT_EQ(r.count, 1u);  // [10, 20) excludes the second point
}

TEST(Tsdb, FilterByTags) {
  TimeSeriesDb db;
  db.write("m", tags("Auckland", "LA"), Timestamp::from_ms(1), 10.0);
  db.write("m", tags("Auckland", "London"), Timestamp::from_ms(2), 20.0);
  db.write("m", tags("Wellington", "LA"), Timestamp::from_ms(3), 30.0);

  TagSet filter;
  filter.add("src_city", "Auckland");
  const auto r = db.aggregate("m", filter, Timestamp{}, Timestamp::from_sec(1));
  EXPECT_EQ(r.count, 2u);
  EXPECT_DOUBLE_EQ(r.max, 20.0);
}

TEST(Tsdb, UnknownMeasurementIsEmpty) {
  TimeSeriesDb db;
  const auto r = db.aggregate("nope", TagSet{}, Timestamp{}, Timestamp::from_sec(1));
  EXPECT_EQ(r.count, 0u);
}

TEST(Tsdb, WindowAggregateBucketsByTime) {
  TimeSeriesDb db;
  const TagSet t = tags("A", "B");
  // 10 points per second for 5 seconds, value = second index.
  for (int sec = 0; sec < 5; ++sec) {
    for (int i = 0; i < 10; ++i) {
      db.write("m", t, Timestamp::from_ms(sec * 1000 + i * 50), static_cast<double>(sec));
    }
  }
  const auto windows = db.window_aggregate("m", TagSet{}, Timestamp{}, Timestamp::from_sec(5),
                                           Duration::from_sec(1.0));
  ASSERT_EQ(windows.size(), 5u);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    EXPECT_EQ(windows[w].window_start.ns, Timestamp::from_sec(static_cast<double>(w)).ns);
    EXPECT_EQ(windows[w].stats.count, 10u);
    EXPECT_DOUBLE_EQ(windows[w].stats.mean, static_cast<double>(w));
  }
}

TEST(Tsdb, WindowAggregateSkipsEmptyWindows) {
  TimeSeriesDb db;
  const TagSet t = tags("A", "B");
  db.write("m", t, Timestamp::from_sec(0.5), 1.0);
  db.write("m", t, Timestamp::from_sec(3.5), 2.0);
  const auto windows =
      db.window_aggregate("m", TagSet{}, Timestamp{}, Timestamp::from_sec(4), Duration::from_sec(1.0));
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].window_start.ns, 0);
  EXPECT_EQ(windows[1].window_start.ns, Timestamp::from_sec(3).ns);
}

TEST(Tsdb, GroupByTagKey) {
  TimeSeriesDb db;
  db.write("m", tags("Auckland", "LA"), Timestamp::from_ms(1), 10.0);
  db.write("m", tags("Auckland", "LA"), Timestamp::from_ms(2), 20.0);
  db.write("m", tags("Wellington", "LA"), Timestamp::from_ms(3), 99.0);

  const auto groups = db.group_by("m", "src_city", TagSet{}, Timestamp{}, Timestamp::from_sec(1));
  ASSERT_EQ(groups.size(), 2u);
  // Groups are sorted by tag value (std::map).
  EXPECT_EQ(groups[0].tag_value, "Auckland");
  EXPECT_EQ(groups[0].stats.count, 2u);
  EXPECT_DOUBLE_EQ(groups[0].stats.mean, 15.0);
  EXPECT_EQ(groups[1].tag_value, "Wellington");
  EXPECT_DOUBLE_EQ(groups[1].stats.max, 99.0);
}

TEST(Tsdb, RetentionDropsOldPoints) {
  TimeSeriesDb db;
  const TagSet t = tags("A", "B");
  for (int i = 0; i < 100; ++i) db.write("m", t, Timestamp::from_sec(i), 1.0);
  const std::size_t dropped =
      db.enforce_retention(Timestamp::from_sec(100), Duration::from_sec(30.0));
  EXPECT_EQ(dropped, 70u);
  const auto r = db.aggregate("m", TagSet{}, Timestamp{}, Timestamp::from_sec(1000));
  EXPECT_EQ(r.count, 30u);
}

TEST(Tsdb, ScopedRetentionSparesOtherMeasurements) {
  TimeSeriesDb db;
  const TagSet t = tags("A", "B");
  for (int i = 0; i < 10; ++i) {
    db.write("raw", t, Timestamp::from_sec(i), 1.0);
    db.write("downsampled", t, Timestamp::from_sec(i), 1.0);
  }
  const auto dropped =
      db.enforce_retention(Timestamp::from_sec(10), Duration::from_sec(0.0), {"raw"});
  EXPECT_EQ(dropped, 10u);
  EXPECT_EQ(db.aggregate("raw", TagSet{}, Timestamp{}, Timestamp::from_sec(100)).count, 0u);
  EXPECT_EQ(db.aggregate("downsampled", TagSet{}, Timestamp{}, Timestamp::from_sec(100)).count,
            10u);
}

TEST(Tsdb, RetentionRemovesEmptySeries) {
  TimeSeriesDb db;
  db.write("m", tags("A", "B"), Timestamp::from_sec(1), 1.0);
  EXPECT_EQ(db.series_count(), 1u);
  db.enforce_retention(Timestamp::from_sec(100), Duration::from_sec(10.0));
  EXPECT_EQ(db.series_count(), 0u);
}

TEST(Tsdb, OutOfOrderWritesStillQueryCorrectly) {
  TimeSeriesDb db;
  const TagSet t = tags("A", "B");
  db.write("m", t, Timestamp::from_ms(100), 3.0);
  db.write("m", t, Timestamp::from_ms(50), 1.0);  // out of order
  db.write("m", t, Timestamp::from_ms(75), 2.0);
  const auto r = db.aggregate("m", TagSet{}, Timestamp::from_ms(60), Timestamp::from_ms(110));
  EXPECT_EQ(r.count, 2u);
  EXPECT_DOUBLE_EQ(r.min, 2.0);
}

TEST(Tsdb, StatsMatchBruteForceOnRandomData) {
  TimeSeriesDb db;
  const TagSet t = tags("X", "Y");
  Pcg32 rng(2024);
  std::vector<double> in_range;
  for (int i = 0; i < 5'000; ++i) {
    const auto ts = Timestamp::from_ms(static_cast<std::int64_t>(rng.bounded(10'000)));
    const double v = rng.uniform(0.0, 500.0);
    db.write("m", t, ts, v);
    if (ts >= Timestamp::from_ms(2'000) && ts < Timestamp::from_ms(8'000)) in_range.push_back(v);
  }
  const auto r = db.aggregate("m", TagSet{}, Timestamp::from_ms(2'000), Timestamp::from_ms(8'000));
  ASSERT_EQ(r.count, in_range.size());
  std::sort(in_range.begin(), in_range.end());
  EXPECT_DOUBLE_EQ(r.min, in_range.front());
  EXPECT_DOUBLE_EQ(r.max, in_range.back());
  double sum = 0;
  for (const double v : in_range) sum += v;
  EXPECT_NEAR(r.mean, sum / static_cast<double>(in_range.size()), 1e-9);
}

TEST(Tsdb, ConcurrentWritersAreSafe) {
  TimeSeriesDb db;
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&db, w] {
      const TagSet t = tags("src" + std::to_string(w), "dst");
      for (int i = 0; i < 5'000; ++i) {
        db.write("m", t, Timestamp::from_ms(i), static_cast<double>(i));
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(db.points_written(), 20'000u);
  EXPECT_EQ(db.series_count(), 4u);
}

}  // namespace
}  // namespace ruru
