#include "anomaly/conncount_detector.hpp"

#include <gtest/gtest.h>

namespace ruru {
namespace {

ConnCountConfig config() {
  ConnCountConfig cfg;
  cfg.window = Duration::from_sec(10.0);
  cfg.alpha = 0.2;
  cfg.k_sigma = 5.0;
  cfg.min_sigma = 2.0;
  cfg.warmup_windows = 3;
  cfg.min_count = 20;
  return cfg;
}

/// A sink that collects every alert the detector raises into `out`.
AlertSink into(std::vector<Alert>& out) {
  return [&out](Alert a) { out.push_back(std::move(a)); };
}

EnrichedSample sample(const std::string& src, const std::string& dst, Timestamp t) {
  EnrichedSample s;
  s.client.city_id = geo_names().intern(src);
  s.server.city_id = geo_names().intern(dst);
  s.total = Duration::from_ms(130);
  s.completed_at = t;
  return s;
}

// Feed `count` connections for the pair inside window `w`.
void feed_window(ConnCountDetector& d, int w, int count, const std::string& src = "Auckland") {
  for (int i = 0; i < count; ++i) {
    d.add(sample(src, "Los Angeles",
                 Timestamp::from_sec(w * 10.0) + Duration::from_ms(i % 9'000)));
  }
}

TEST(ConnCountDetector, SteadyTrafficNoAlerts) {
  std::vector<Alert> alerts;
  ConnCountDetector d(config(), into(alerts));
  for (int w = 0; w < 20; ++w) feed_window(d, w, 10);
  d.flush();
  EXPECT_TRUE(alerts.empty());
}

TEST(ConnCountDetector, DetectsConnectionSurge) {
  std::vector<Alert> alerts;
  ConnCountDetector d(config(), into(alerts));
  for (int w = 0; w < 10; ++w) feed_window(d, w, 10);
  feed_window(d, 10, 300);  // 30x surge
  feed_window(d, 11, 10);   // closes the surge window
  d.flush();
  ASSERT_GE(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, "conn-count");
  EXPECT_EQ(alerts[0].subject, "Auckland|Los Angeles");
  EXPECT_GT(alerts[0].score, 5.0);
}

TEST(ConnCountDetector, WarmupSuppressesEarlyAlerts) {
  std::vector<Alert> alerts;
  ConnCountDetector d(config(), into(alerts));
  feed_window(d, 0, 500);
  feed_window(d, 1, 1);  // close window 0 during warmup
  d.flush();
  // Window 0 is within warmup_windows=3 -> silent even though huge.
  for (const auto& a : alerts) EXPECT_NE(a.time.ns, 0);
}

TEST(ConnCountDetector, SmallSpikesBelowMinCountIgnored) {
  auto cfg = config();
  cfg.min_count = 50;
  std::vector<Alert> alerts;
  ConnCountDetector d(cfg, into(alerts));
  for (int w = 0; w < 10; ++w) feed_window(d, w, 2);
  feed_window(d, 10, 30);  // big z-score but below min_count
  feed_window(d, 11, 2);
  d.flush();
  EXPECT_TRUE(alerts.empty());
}

TEST(ConnCountDetector, PairsAreIndependent) {
  std::vector<Alert> alerts;
  ConnCountDetector d(config(), into(alerts));
  for (int w = 0; w < 10; ++w) {
    feed_window(d, w, 10, "Auckland");
    feed_window(d, w, 10, "Wellington");
  }
  feed_window(d, 10, 10, "Auckland");
  feed_window(d, 10, 400, "Wellington");
  feed_window(d, 11, 1, "Auckland");
  d.flush();
  ASSERT_GE(alerts.size(), 1u);
  for (const auto& a : alerts) {
    EXPECT_EQ(a.subject, "Wellington|Los Angeles");
  }
}

TEST(ConnCountDetector, SurgeNotAbsorbedIntoBaseline) {
  std::vector<Alert> alerts;
  ConnCountDetector d(config(), into(alerts));
  for (int w = 0; w < 10; ++w) feed_window(d, w, 10);
  feed_window(d, 10, 300);
  feed_window(d, 11, 300);  // sustained surge keeps alerting
  feed_window(d, 12, 1);
  d.flush();
  EXPECT_GE(alerts.size(), 2u);
}

}  // namespace
}  // namespace ruru
