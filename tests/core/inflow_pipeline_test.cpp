// End-to-end in-flow RTT: a long-lived transfer's mid-flow latency
// shift — invisible to handshake-only measurement — lands in the TSDB's
// "inflow_ms" series, while the handshake output stays exactly what the
// feature-off pipeline produces.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "capture/scenarios.hpp"
#include "core/pipeline.hpp"
#include "core/replay.hpp"
#include "geo/world.hpp"

namespace ruru {
namespace {

World scenario_world() {
  std::vector<SiteSpec> specs;
  auto convert = [&](const scenarios::Site& s) {
    SiteSpec spec;
    spec.city = s.city;
    spec.country = s.country;
    spec.latitude = s.latitude;
    spec.longitude = s.longitude;
    spec.asn = s.asn;
    spec.block_start = s.block.value();
    spec.block_size = 256;
    specs.push_back(std::move(spec));
  };
  for (const auto& s : scenarios::nz_sites()) convert(s);
  for (const auto& s : scenarios::world_sites()) convert(s);
  auto w = build_world(specs);
  EXPECT_TRUE(w.ok()) << w.error();
  return std::move(w).value();
}

PipelineConfig inflow_config(bool enabled) {
  PipelineConfig cfg;
  cfg.num_queues = 1;
  cfg.enrichment_threads = 1;
  cfg.inflow_rtt = enabled;
  cfg.inflow_min_interval_us = 0;  // keep every sample: the test inspects window means
  return cfg;
}

TEST(InflowPipeline, MidFlowShiftVisibleInTsdbHandshakesUntouched) {
  const World world = scenario_world();
  const Timestamp shift_at = Timestamp::from_sec(5.0);
  const Duration shift_extra = Duration::from_ms(80);

  auto run = [&](bool enabled) {
    auto model = scenarios::inflow_shift(17, 20.0, Duration::from_sec(10.0), shift_at,
                                         shift_extra);
    auto pipeline = std::make_unique<RuruPipeline>(inflow_config(enabled), world.geo, world.as);
    pipeline->start();
    replay_scenario(*pipeline, model);
    pipeline->finish();
    return pipeline;
  };

  const auto on = run(true);
  const auto off = run(false);

  // The long transfer's external half before and after the shift, as the
  // in-flow kernel measured it at the tap.  The route tags pin it to the
  // Auckland -> Los Angeles series the scenario set up.
  const TagSet route = TagSet{}
                           .add("src_city", "Auckland")
                           .add("dst_city", "Los Angeles")
                           .add("half", "external");
  const auto before =
      on->tsdb().aggregate("inflow_ms", route, Timestamp{}, shift_at - Duration::from_ms(250));
  const auto after = on->tsdb().aggregate("inflow_ms", route, shift_at + Duration::from_ms(250),
                                          Timestamp::from_sec(1000));
  ASSERT_GT(before.count, 10u);
  ASSERT_GT(after.count, 10u);
  // External half grew by ~80 ms mid-flow; allow generous slack for the
  // exchange straddling the boundary.
  EXPECT_GT(after.mean - before.mean, 40.0);
  EXPECT_LT(after.mean - before.mean, 120.0);

  // The internal half did not move.
  const TagSet internal_route = TagSet{}
                                    .add("src_city", "Auckland")
                                    .add("dst_city", "Los Angeles")
                                    .add("half", "internal");
  const auto in_before = on->tsdb().aggregate("inflow_ms", internal_route, Timestamp{},
                                              shift_at - Duration::from_ms(250));
  const auto in_after = on->tsdb().aggregate("inflow_ms", internal_route,
                                             shift_at + Duration::from_ms(250),
                                             Timestamp::from_sec(1000));
  ASSERT_GT(in_before.count, 0u);
  ASSERT_GT(in_after.count, 0u);
  EXPECT_LT(std::abs(in_after.mean - in_before.mean), 5.0);

  // Handshake output is identical with the kernel on or off: same sample
  // count, same totals, bit-for-bit equal aggregates.
  EXPECT_EQ(on->summary().tracker.samples_emitted, off->summary().tracker.samples_emitted);
  const auto total_on =
      on->tsdb().aggregate("total_ms", TagSet{}, Timestamp{}, Timestamp::from_sec(1000));
  const auto total_off =
      off->tsdb().aggregate("total_ms", TagSet{}, Timestamp{}, Timestamp::from_sec(1000));
  ASSERT_GT(total_on.count, 0u);
  EXPECT_EQ(total_on.count, total_off.count);
  EXPECT_DOUBLE_EQ(total_on.mean, total_off.mean);
  EXPECT_DOUBLE_EQ(total_on.max, total_off.max);

  // With the kernel off, no in-flow series exists at all.
  const auto none =
      off->tsdb().aggregate("inflow_ms", TagSet{}, Timestamp{}, Timestamp::from_sec(1000));
  EXPECT_EQ(none.count, 0u);
}

TEST(InflowPipeline, SummaryConservesWorkerPackets) {
  // The worker conservation law, read through summary(): every packet is
  // parsed, skipped by the fast path, or consumed by the in-flow kernel.
  const World world = scenario_world();
  for (const bool enabled : {true, false}) {
    SCOPED_TRACE(enabled ? "kernel on" : "kernel off");
    auto model = scenarios::inflow_shift(17, 20.0, Duration::from_sec(3.0),
                                         Timestamp::from_sec(1.5), Duration::from_ms(80));
    RuruPipeline pipeline(inflow_config(enabled), world.geo, world.as);
    pipeline.start();
    replay_scenario(pipeline, model);
    pipeline.finish();

    const WorkerStats& w = pipeline.summary().workers;
    std::uint64_t parsed = 0;
    for (const auto& c : w.parse_status) parsed += c;
    ASSERT_GT(w.packets, 0u);
    EXPECT_EQ(w.packets, parsed + w.fast_path_skips + w.inflow_consumed);
    if (enabled) {
      EXPECT_GT(w.inflow_consumed, 0u);
    } else {
      EXPECT_EQ(w.inflow_consumed, 0u);
    }
  }
}

TEST(InflowPipeline, OneSidedSamplesStayOutOfHandshakeSeries) {
  // Plain background traffic with the kernel on: in-flow samples flow to
  // their own measurements and never pollute the handshake aggregates.
  const World world = scenario_world();
  auto model = scenarios::transpacific(23, 80.0, Duration::from_sec(2.0));
  RuruPipeline pipeline(inflow_config(true), world.geo, world.as);
  pipeline.start();
  replay_scenario(pipeline, model);
  pipeline.finish();

  std::uint64_t expected = 0;
  for (const auto& t : model.truth()) {
    if (t.handshake_completes) ++expected;
  }
  // total_ms counts exactly the completed handshakes, in-flow samples land
  // in inflow_ms.
  const auto total =
      pipeline.tsdb().aggregate("total_ms", TagSet{}, Timestamp{}, Timestamp::from_sec(1000));
  EXPECT_EQ(total.count, expected);
  const auto inflow =
      pipeline.tsdb().aggregate("inflow_ms", TagSet{}, Timestamp{}, Timestamp::from_sec(1000));
  EXPECT_GT(inflow.count, expected);  // continuous: many samples per flow
}

TEST(InflowPipeline, RetentionAgesOutRawInflowPoints) {
  // Retention covers every raw per-sample measurement: in-flow and
  // one-sided points older than the horizon age out exactly like the
  // handshake triple, while newer ones stay.
  const World world = scenario_world();
  PipelineConfig cfg = inflow_config(true);
  cfg.retention_horizon = Duration::from_sec(2.0);
  auto model = scenarios::inflow_shift(17, 20.0, Duration::from_sec(10.0),
                                       Timestamp::from_sec(5.0), Duration::from_ms(80));
  RuruPipeline pipeline(cfg, world.geo, world.as);
  pipeline.start();
  replay_scenario(pipeline, model);
  pipeline.finish();

  // finish() anchors retention at the end of the last link-meter window.
  ASSERT_FALSE(pipeline.link_meter().closed().empty());
  const Timestamp cutoff = pipeline.link_meter().closed().back().start +
                           cfg.link_meter_window - cfg.retention_horizon;
  const Timestamp everything = Timestamp::from_sec(1e6);
  for (const char* m : {"total_ms", "internal_ms", "external_ms", "inflow_ms", "onesided_ms"}) {
    EXPECT_EQ(pipeline.tsdb().aggregate(m, TagSet{}, Timestamp{}, cutoff).count, 0u) << m;
  }
  EXPECT_GT(pipeline.tsdb().aggregate("inflow_ms", TagSet{}, cutoff, everything).count, 10u);
  EXPECT_GT(pipeline.tsdb().aggregate("total_ms", TagSet{}, cutoff, everything).count, 0u);
}

}  // namespace
}  // namespace ruru
