// Flight-recorder end-to-end (ISSUE 8): sampled handshakes leave a
// connected nic -> worker -> flow -> bus -> enrich -> tsdb span chain in
// the rings, tracing never changes the measurement output, and the
// Chrome JSON export lands on disk at pipeline finish.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "capture/scenarios.hpp"
#include "core/pipeline.hpp"
#include "core/replay.hpp"
#include "geo/world.hpp"
#include "obs/trace.hpp"

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

using SampleFacts = std::tuple<std::int64_t, std::int64_t, std::int64_t, std::int64_t>;

std::vector<SampleFacts> run_and_collect(const World& world, std::uint32_t sample_n) {
  PipelineConfig cfg;
  cfg.num_queues = 2;
  cfg.queue_depth = 8192;
  cfg.enrichment_threads = 2;
  cfg.flow_table_capacity = 1 << 14;
  cfg.trace_sample_n = sample_n;
  cfg.trace_ring_capacity = 1 << 15;
  RuruPipeline pipeline(cfg, world.geo, world.as);

  std::vector<SampleFacts> samples;
  std::mutex mu;
  pipeline.add_enriched_sink([&](const EnrichedSample& s) {
    std::lock_guard lock(mu);
    samples.emplace_back(s.started_at.ns, s.completed_at.ns, s.internal.ns, s.external.ns);
  });

  pipeline.start();
  auto model = scenarios::transpacific(0xF162, 1500.0, Duration::from_sec(3.0));
  replay_scenario_sharded(pipeline, model, /*retry_drops=*/true);
  pipeline.finish();
  std::sort(samples.begin(), samples.end());
  return samples;
}

TEST(PipelineTrace, SampledFlowsLeaveConnectedSpanChains) {
  const World world = scenario_world();
  PipelineConfig cfg;
  cfg.num_queues = 2;
  cfg.queue_depth = 8192;
  cfg.enrichment_threads = 2;
  cfg.flow_table_capacity = 1 << 14;
  // Dense sampling (every 4th hash value) so the 3s replay yields
  // several traced lifecycles even after RSS skew.
  cfg.trace_sample_n = 4;
  cfg.trace_ring_capacity = 1 << 15;
  RuruPipeline pipeline(cfg, world.geo, world.as);
  pipeline.start();
  auto model = scenarios::transpacific(0xF162, 1500.0, Duration::from_sec(3.0));
  replay_scenario_sharded(pipeline, model, /*retry_drops=*/true);
  pipeline.finish();

  ASSERT_GT(pipeline.summary().tracker.samples_emitted, 0u);
  ASSERT_TRUE(pipeline.tracer().enabled());
  EXPECT_GT(pipeline.tracer().events_emitted(), 0u);

  std::vector<std::pair<std::string, std::vector<obs::TraceEvent>>> rings;
  pipeline.tracer().snapshot_all(rings);
  ASSERT_FALSE(rings.empty());

  // Group per-packet events by trace id; stage-level events (id 0) are
  // ignored here.
  std::map<std::uint32_t, std::set<obs::TraceStage>> stages_by_id;
  for (const auto& [name, events] : rings) {
    for (const obs::TraceEvent& e : events) {
      if (e.trace_id != 0) stages_by_id[e.trace_id].insert(e.stage);
    }
  }
  ASSERT_FALSE(stages_by_id.empty()) << "no sampled packets at 1-in-4";

  // At least one sampled handshake completed end to end: its id shows
  // up at every stage of the journey.
  const std::set<obs::TraceStage> full = {
      obs::TraceStage::kNic,  obs::TraceStage::kWorker, obs::TraceStage::kFlow,
      obs::TraceStage::kBus,  obs::TraceStage::kEnrich, obs::TraceStage::kTsdb,
  };
  bool found_full_chain = false;
  for (const auto& [id, stages] : stages_by_id) {
    if (std::includes(stages.begin(), stages.end(), full.begin(), full.end())) {
      found_full_chain = true;
      break;
    }
  }
  EXPECT_TRUE(found_full_chain)
      << "no trace id traversed all six stages (" << stages_by_id.size()
      << " sampled ids seen)";

  // Every traced id that produced a latency sample reached enrichment
  // on the same id — the chain is connected, not six disjoint samplers.
  for (const auto& [id, stages] : stages_by_id) {
    if (stages.count(obs::TraceStage::kTsdb) != 0) {
      EXPECT_NE(stages.count(obs::TraceStage::kEnrich), 0u)
          << "tsdb span without enrich span for id " << id;
    }
  }
}

TEST(PipelineTrace, ExportsChromeJsonOnFinish) {
  const World world = scenario_world();
  const std::string path = ::testing::TempDir() + "/ruru_trace_test.json";
  std::remove(path.c_str());

  PipelineConfig cfg;
  cfg.num_queues = 1;
  cfg.enrichment_threads = 1;
  cfg.trace_sample_n = 4;
  cfg.trace_ring_capacity = 1 << 14;
  cfg.trace_json_path = path;
  RuruPipeline pipeline(cfg, world.geo, world.as);
  pipeline.start();
  auto model = scenarios::transpacific(0xF162, 1000.0, Duration::from_sec(2.0));
  replay_scenario(pipeline, model, /*retry_drops=*/true);
  pipeline.finish();

  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << "trace JSON not written to " << path;
  std::string json((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  while (!json.empty() && (json.back() == '\n' || json.back() == ' ')) json.pop_back();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(PipelineTrace, TracingDoesNotChangeMeasurements) {
  // The flight recorder observes; it must never perturb.  Same replay
  // with tracing off and at 1-in-64: every timing fact bit-identical.
  const World world = scenario_world();
  const std::vector<SampleFacts> untraced = run_and_collect(world, 0);
  ASSERT_FALSE(untraced.empty());
  const std::vector<SampleFacts> traced = run_and_collect(world, 64);
  EXPECT_EQ(traced, untraced);
}

TEST(PipelineTrace, DisabledTracerEmitsNothing) {
  const World world = scenario_world();
  PipelineConfig cfg;
  cfg.num_queues = 1;
  cfg.enrichment_threads = 1;
  cfg.trace_sample_n = 0;  // off
  RuruPipeline pipeline(cfg, world.geo, world.as);
  pipeline.start();
  auto model = scenarios::transpacific(0xF162, 500.0, Duration::from_sec(1.0));
  replay_scenario(pipeline, model, /*retry_drops=*/true);
  pipeline.finish();
  EXPECT_FALSE(pipeline.tracer().enabled());
  EXPECT_EQ(pipeline.tracer().events_emitted(), 0u);
}

TEST(PipelineTrace, WatchdogRunsCleanOnAHealthyPipeline) {
  // A healthy replay under an armed watchdog: no stalls, and an
  // on-demand dump works end to end (the SIGUSR1 path minus the
  // signal).
  const World world = scenario_world();
  PipelineConfig cfg;
  cfg.num_queues = 1;
  cfg.enrichment_threads = 1;
  cfg.trace_sample_n = 16;
  cfg.watchdog_enabled = true;
  cfg.watchdog_interval = Duration::from_ms(20);
  cfg.watchdog_stall_after = Duration::from_sec(30.0);  // never fires in a 2s run
  RuruPipeline pipeline(cfg, world.geo, world.as);
  pipeline.start();
  ASSERT_NE(pipeline.watchdog(), nullptr);
  auto model = scenarios::transpacific(0xF162, 1000.0, Duration::from_sec(2.0));
  replay_scenario(pipeline, model, /*retry_drops=*/true);
  pipeline.watchdog()->request_dump();
  pipeline.watchdog()->poll_now();
  pipeline.finish();
  EXPECT_EQ(pipeline.watchdog()->stalls_detected(), 0u);
  EXPECT_GE(pipeline.watchdog()->dumps_taken(), 1u);
  EXPECT_GT(pipeline.summary().tracker.samples_emitted, 0u);
}

}  // namespace
}  // namespace ruru
