#include "anomaly/synflood_detector.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace ruru {
namespace {

SynFloodConfig config() {
  SynFloodConfig cfg;
  cfg.window = Duration::from_sec(1.0);
  cfg.min_syns = 100;
  cfg.max_completion_ratio = 0.2;
  return cfg;
}

/// A sink that collects every alert the detector raises into `out`.
AlertSink into(std::vector<Alert>& out) {
  return [&out](Alert a) { out.push_back(std::move(a)); };
}

TEST(SynFloodDetector, DetectsBareSynBurst) {
  std::vector<Alert> alerts;
  SynFloodDetector d(config(), into(alerts));
  const Ipv4Address target(10, 1, 0, 80);
  for (int i = 0; i < 500; ++i) {
    d.on_syn(Timestamp::from_ms(i * 2), target);  // 500 SYNs in 1 s
  }
  d.flush();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, "syn-flood");
  EXPECT_EQ(alerts[0].subject, "10.1.0.80");
  EXPECT_GT(alerts[0].score, 400.0);
}

TEST(SynFloodDetector, HealthyTrafficDoesNotAlert) {
  std::vector<Alert> alerts;
  SynFloodDetector d(config(), into(alerts));
  const Ipv4Address target(10, 2, 0, 1);
  for (int i = 0; i < 500; ++i) {
    d.on_syn(Timestamp::from_ms(i * 2), target);
    d.on_completion(Timestamp::from_ms(i * 2 + 1), target);  // every SYN completes
  }
  d.flush();
  EXPECT_TRUE(alerts.empty());
}

TEST(SynFloodDetector, LowVolumeIgnored) {
  std::vector<Alert> alerts;
  SynFloodDetector d(config(), into(alerts));
  const Ipv4Address target(10, 2, 0, 2);
  for (int i = 0; i < 50; ++i) d.on_syn(Timestamp::from_ms(i), target);  // < min_syns
  d.flush();
  EXPECT_TRUE(alerts.empty());
}

TEST(SynFloodDetector, WindowsCloseAsTimeAdvances) {
  std::vector<Alert> alerts;
  SynFloodDetector d(config(), into(alerts));
  const Ipv4Address target(10, 1, 0, 80);
  // Flood in window [0,1); normal in [1,2).
  for (int i = 0; i < 300; ++i) d.on_syn(Timestamp::from_ms(i * 3), target);
  // Crossing into the next window closes the first one.
  d.on_syn(Timestamp::from_ms(1500), target);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].time.ns, 0);
}

TEST(SynFloodDetector, PerTargetIsolation) {
  std::vector<Alert> alerts;
  SynFloodDetector d(config(), into(alerts));
  const Ipv4Address victim(10, 1, 0, 80);
  const Ipv4Address healthy(10, 1, 0, 81);
  for (int i = 0; i < 300; ++i) {
    d.on_syn(Timestamp::from_ms(i * 3), victim);  // flood, no completions
    d.on_syn(Timestamp::from_ms(i * 3), healthy);
    d.on_completion(Timestamp::from_ms(i * 3 + 1), healthy);
  }
  d.flush();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].subject, victim.to_string());
}

TEST(SynFloodDetector, GapSpanningMultipleWindows) {
  std::vector<Alert> alerts;
  SynFloodDetector d(config(), into(alerts));
  const Ipv4Address target(10, 1, 0, 80);
  for (int i = 0; i < 300; ++i) d.on_syn(Timestamp::from_ms(i * 3), target);
  // A long quiet gap: the flood window still closes exactly once.
  d.on_syn(Timestamp::from_sec(100), target);
  EXPECT_EQ(alerts.size(), 1u);
  d.flush();  // the lone SYN's window stays below min_syns
  EXPECT_EQ(alerts.size(), 1u);
}

TEST(SynFloodDetector, FlushIsIdempotent) {
  std::vector<Alert> alerts;
  SynFloodDetector d(config(), into(alerts));
  const Ipv4Address target(10, 1, 0, 80);
  for (int i = 0; i < 300; ++i) d.on_syn(Timestamp::from_ms(i * 3), target);
  d.flush();
  EXPECT_EQ(alerts.size(), 1u);
  d.flush();
  EXPECT_EQ(alerts.size(), 1u);
}

/// One detector input: a SYN or a handshake completion.
struct Event {
  bool syn;
  Timestamp time;
  Ipv4Address server;
};

/// The inputs of the tests above, as event streams.
std::vector<std::vector<Event>> detector_inputs() {
  const Ipv4Address flood(10, 1, 0, 80);
  const Ipv4Address healthy(10, 1, 0, 81);
  std::vector<std::vector<Event>> inputs(6);
  for (int i = 0; i < 500; ++i) inputs[0].push_back({true, Timestamp::from_ms(i * 2), flood});
  for (int i = 0; i < 500; ++i) {
    inputs[1].push_back({true, Timestamp::from_ms(i * 2), healthy});
    inputs[1].push_back({false, Timestamp::from_ms(i * 2 + 1), healthy});
  }
  for (int i = 0; i < 50; ++i) inputs[2].push_back({true, Timestamp::from_ms(i), healthy});
  for (int i = 0; i < 300; ++i) {
    inputs[3].push_back({true, Timestamp::from_ms(i * 3), flood});
    inputs[4].push_back({true, Timestamp::from_ms(i * 3), flood});
    inputs[4].push_back({true, Timestamp::from_ms(i * 3), healthy});
    inputs[4].push_back({false, Timestamp::from_ms(i * 3 + 1), healthy});
    inputs[5].push_back({true, Timestamp::from_ms(i * 3), flood});
  }
  inputs[3].push_back({true, Timestamp::from_ms(1500), flood});
  inputs[5].push_back({true, Timestamp::from_sec(100), flood});
  return inputs;
}

/// Feeds `events` one call per event.
std::vector<Alert> per_event(const SynFloodConfig& cfg, const std::vector<Event>& events) {
  std::vector<Alert> alerts;
  SynFloodDetector d(cfg, into(alerts));
  for (const Event& e : events) {
    if (e.syn) {
      d.on_syn(e.time, e.server);
    } else {
      d.on_completion(e.time, e.server);
    }
  }
  d.flush();
  return alerts;
}

/// Feeds `events` the way a worker does: runs of SYNs in bursts of up to
/// 32 through on_syns(), runs of completions as a sample batch through
/// on_completions(), with an in-flow sample in every batch that must not
/// count.
std::vector<Alert> batched(const SynFloodConfig& cfg, const std::vector<Event>& events) {
  std::vector<Alert> alerts;
  SynFloodDetector d(cfg, into(alerts));
  std::size_t i = 0;
  while (i < events.size()) {
    if (events[i].syn) {
      std::vector<SynEvent> syns;
      for (; i < events.size() && events[i].syn && syns.size() < 32; ++i) {
        syns.push_back({events[i].time, events[i].server});
      }
      d.on_syns(syns);
    } else {
      std::vector<LatencySample> samples;
      for (; i < events.size() && !events[i].syn; ++i) {
        LatencySample s;
        s.server = events[i].server;
        s.ack_time = events[i].time;
        samples.push_back(s);
        s.kind = SampleKind::kInflow;
        samples.push_back(s);
      }
      d.on_completions(samples);
    }
  }
  d.flush();
  return alerts;
}

TEST(SynFloodDetector, BatchedCallsMatchPerEventCalls) {
  // An alert per target per window exposes every window's counts in its
  // detail; the default thresholds check the alerts themselves.
  SynFloodConfig every_window = config();
  every_window.min_syns = 1;
  every_window.max_completion_ratio = 1.0;
  for (const SynFloodConfig& cfg : {config(), every_window}) {
    const auto inputs = detector_inputs();
    for (std::size_t n = 0; n < inputs.size(); ++n) {
      SCOPED_TRACE(testing::Message() << "input " << n << ", min_syns " << cfg.min_syns);
      auto want = per_event(cfg, inputs[n]);
      auto got = batched(cfg, inputs[n]);
      // Within one closed window alerts follow hash-map order.
      const auto order = [](const Alert& a, const Alert& b) {
        return a.time.ns != b.time.ns ? a.time.ns < b.time.ns : a.subject < b.subject;
      };
      std::sort(want.begin(), want.end(), order);
      std::sort(got.begin(), got.end(), order);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(got[k].time.ns, want[k].time.ns);
        EXPECT_EQ(got[k].subject, want[k].subject);
        EXPECT_EQ(got[k].detail, want[k].detail);
        EXPECT_EQ(got[k].score, want[k].score);
      }
    }
  }
}

}  // namespace
}  // namespace ruru
