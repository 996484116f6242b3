#include "anomaly/periodic_detector.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "util/random.hpp"

namespace ruru {
namespace {

PeriodicConfig day_config() {
  PeriodicConfig cfg;
  cfg.period = Duration::from_sec(86'400.0);
  cfg.bucket = Duration::from_sec(60.0);
  cfg.spike_factor = 3.0;
  cfg.min_periods = 2;
  cfg.min_samples = 8;
  return cfg;
}

// Simulate `days` days of traffic: normal flows ~130 ms all day, plus a
// +4000 ms window at `glitch_offset` each day.
void feed_days(PeriodicSpikeDetector& d, int days, Duration glitch_offset, Duration glitch_width,
               std::uint64_t seed) {
  Pcg32 rng(seed);
  for (int day = 0; day < days; ++day) {
    const std::int64_t day_ns = static_cast<std::int64_t>(day) * 86'400'000'000'000;
    // 2000 normal flows spread across the day.
    for (int i = 0; i < 2000; ++i) {
      const Timestamp t{day_ns + static_cast<std::int64_t>(rng.uniform(0, 86'400.0) * 1e9)};
      d.add(t, Duration::from_ms(125 + static_cast<std::int64_t>(rng.bounded(10))));
    }
    // 30 glitched flows inside the window.
    if (glitch_width.ns <= 0) continue;
    for (int i = 0; i < 30; ++i) {
      const Timestamp t{day_ns + glitch_offset.ns +
                        static_cast<std::int64_t>(rng.uniform(0, glitch_width.to_sec()) * 1e9)};
      d.add(t, Duration::from_ms(4130));
    }
  }
}

TEST(PeriodicDetector, FindsNightlyFirewallWindow) {
  PeriodicSpikeDetector d(day_config());
  const Duration offset = Duration::from_sec(3.0 * 3600);  // 03:00 each night
  feed_days(d, 3, offset, Duration::from_sec(30.0), 99);

  const auto findings = d.findings();
  ASSERT_FALSE(findings.empty());
  // The finding's bucket must cover 03:00.
  bool found = false;
  for (const auto& f : findings) {
    if (f.offset_in_period.ns <= offset.ns &&
        offset.ns < f.offset_in_period.ns + Duration::from_sec(60.0).ns) {
      found = true;
      EXPECT_GE(f.periods_seen, 2);
      EXPECT_GT(f.bucket_median.ns, Duration::from_ms(4000).ns);
      EXPECT_LT(f.baseline_median.ns, Duration::from_ms(200).ns);
    }
  }
  EXPECT_TRUE(found);
  // And no more than a couple of buckets flagged (the glitch is 30s wide).
  EXPECT_LE(findings.size(), 2u);
}

TEST(PeriodicDetector, OneOffSpikeIsNotPeriodic) {
  PeriodicSpikeDetector d(day_config());
  // 3 days of normal traffic...
  feed_days(d, 3, Duration::from_sec(0), Duration::from_sec(0), 5);
  // ...plus a single large burst on day 1 only (not recurring).
  const std::int64_t day1 = 86'400'000'000'000;
  for (std::int64_t i = 0; i < 50; ++i) {
    d.add(Timestamp{day1 + 7'200'000'000'000 + i * 1'000'000'000}, Duration::from_ms(4130));
  }
  for (const auto& f : d.findings()) {
    // min_periods=2: the 02:00 bucket of day 1 alone must not qualify.
    EXPECT_NE(f.offset_in_period.ns / 3'600'000'000'000, 2) << "one-off flagged as periodic";
  }
}

TEST(PeriodicDetector, QuietDetectorHasNoFindings) {
  PeriodicSpikeDetector d(day_config());
  EXPECT_TRUE(d.findings().empty());
  EXPECT_TRUE(d.alerts().empty());
  feed_days(d, 2, Duration::from_sec(0), Duration::from_sec(0), 11);
  EXPECT_TRUE(d.findings().empty());
}

TEST(PeriodicDetector, MinSamplesSuppressesThinBuckets) {
  auto cfg = day_config();
  cfg.min_samples = 100;  // higher than the 30 glitched flows per bucket
  PeriodicSpikeDetector d(cfg);
  feed_days(d, 3, Duration::from_sec(3.0 * 3600), Duration::from_sec(30.0), 42);
  // The glitch bucket holds ~90 samples (30/day x 3 days) + background;
  // min_samples=100 filters depends on background... use a stricter bound:
  for (const auto& f : d.findings()) {
    EXPECT_GE(f.samples, 100u);
  }
}

TEST(PeriodicDetector, AlertsCarryFindingDetails) {
  PeriodicSpikeDetector d(day_config());
  feed_days(d, 3, Duration::from_sec(3.0 * 3600), Duration::from_sec(30.0), 99);
  const auto alerts = d.alerts();
  ASSERT_FALSE(alerts.empty());
  EXPECT_EQ(alerts[0].kind, "periodic-glitch");
  EXPECT_GT(alerts[0].score, 3.0);
  EXPECT_NE(alerts[0].detail.find("recurring spike"), std::string::npos);
}

TEST(PeriodicDetector, TimesNearInt64MinFoldIntoTheirOffset) {
  // INT64_MIN + 5 ns lies 763.1 s into its day (floor modulo), so in the
  // bucket that starts at 720 s; folding it must not overflow.
  auto cfg = day_config();
  cfg.min_periods = 1;
  cfg.min_samples = 1;
  PeriodicSpikeDetector d(cfg);
  const Timestamp t{std::numeric_limits<std::int64_t>::min() + 5};
  for (int i = 0; i < 100; ++i) d.add(t + Duration::from_sec(7200.0 + i), Duration::from_ms(130));
  d.add(t, Duration::from_ms(4130));
  const auto findings = d.findings();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].offset_in_period.ns, Duration::from_sec(720.0).ns);
}

TEST(PeriodicDetector, BucketCountCoversPeriod) {
  PeriodicSpikeDetector d(day_config());
  EXPECT_EQ(d.bucket_count(), 1440u);  // 24h / 60s
}

}  // namespace
}  // namespace ruru
