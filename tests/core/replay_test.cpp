#include "core/ruru.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "capture/scenarios.hpp"
#include "geo/world.hpp"

namespace ruru {
namespace {

World tiny_world() {
  auto w = build_world(large_world_sites(4));
  EXPECT_TRUE(w.ok());
  return std::move(w).value();
}

PipelineConfig tiny_config() {
  PipelineConfig cfg;
  cfg.num_queues = 1;
  cfg.enrichment_threads = 1;
  return cfg;
}

TEST(Replay, PcapRoundTripThroughPipeline) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("replay_test_" + std::to_string(::getpid()) + ".pcap"))
          .string();

  // 1. Record a scenario to pcap.
  auto model = scenarios::transpacific(3, 100.0, Duration::from_sec(1.0));
  std::uint64_t written = 0;
  {
    auto writer = PcapWriter::open(path);
    ASSERT_TRUE(writer.ok());
    while (auto f = model.next()) {
      ASSERT_TRUE(writer.value().write(f->timestamp, f->frame).ok());
      ++written;
    }
  }
  ASSERT_GT(written, 100u);

  // 2. Replay the pcap through a live pipeline.
  const World world = tiny_world();
  RuruPipeline pipeline(tiny_config(), world.geo, world.as);
  pipeline.start();
  const auto stats = replay_pcap(pipeline, path);
  ASSERT_TRUE(stats.ok()) << stats.error();
  pipeline.finish();

  EXPECT_EQ(stats.value().frames, written);
  EXPECT_EQ(stats.value().inject_drops, 0u);
  EXPECT_EQ(pipeline.summary().nic.rx_packets, written);

  // Same number of handshakes as the ground truth says completed.
  std::uint64_t expected = 0;
  for (const auto& t : model.truth()) {
    if (t.handshake_completes) ++expected;
  }
  EXPECT_EQ(pipeline.summary().tracker.samples_emitted, expected);

  std::remove(path.c_str());
}

TEST(Replay, MissingPcapReportsError) {
  const World world = tiny_world();
  RuruPipeline pipeline(tiny_config(), world.geo, world.as);
  pipeline.start();
  EXPECT_FALSE(replay_pcap(pipeline, "/no/such/file.pcap").ok());
  pipeline.finish();
}

TEST(Replay, PacedReplayRespectsTimeScale) {
  const World world = tiny_world();
  RuruPipeline pipeline(tiny_config(), world.geo, world.as);
  pipeline.start();
  // 0.5 s of scenario time at 10x fast-forward ~= 50 ms of wall time.
  auto model = scenarios::transpacific(4, 100.0, Duration::from_sec(0.5));
  const auto stats = replay_scenario_paced(pipeline, model, /*time_scale=*/10.0);
  pipeline.finish();
  EXPECT_GT(stats.frames, 50u);
  EXPECT_GE(stats.wall_seconds, 0.03);  // actually paced, not instant
  EXPECT_LT(stats.wall_seconds, 2.0);   // but compressed well below 0.5 s x frames
  EXPECT_EQ(stats.inject_drops, 0u);
  EXPECT_EQ(pipeline.summary().nic.rx_packets, stats.frames);
}

TEST(Replay, UmbrellaHeaderCompiles) {
  // core/ruru.hpp is the public entry point; this test exists so a
  // regression in any re-exported header breaks visibly.
  SUCCEED();
}

TEST(Replay, ScenarioStatsAccounting) {
  const World world = tiny_world();
  RuruPipeline pipeline(tiny_config(), world.geo, world.as);
  pipeline.start();
  auto model = scenarios::transpacific(9, 50.0, Duration::from_sec(1.0));
  const auto stats = replay_scenario(pipeline, model);
  pipeline.finish();
  EXPECT_EQ(stats.frames, model.frames_emitted());
  EXPECT_GT(stats.bytes, stats.frames * 50);  // frames are > 50B each
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.frames_per_sec(), 0.0);
  EXPECT_GT(stats.gbits_per_sec(), 0.0);
}

TEST(Replay, RetriedFramesAreMeteredOnce) {
  // A 4-deep RX ring refuses most of each 32-frame burst, so replay
  // retries; the link meter must still count every frame exactly once.
  const World world = tiny_world();
  PipelineConfig cfg = tiny_config();
  cfg.queue_depth = 4;
  RuruPipeline pipeline(cfg, world.geo, world.as);
  pipeline.start();
  auto model = scenarios::transpacific(9, 200.0, Duration::from_sec(1.0));
  const auto stats = replay_scenario(pipeline, model);
  pipeline.finish();
  ASSERT_GT(pipeline.nic().stats_totals().dropped_queue_full.load(), 0u);  // retries happened
  EXPECT_EQ(stats.inject_drops, 0u);
  EXPECT_EQ(pipeline.link_meter().total_packets(), stats.frames);
  EXPECT_EQ(pipeline.summary().nic.rx_packets, stats.frames);
}

}  // namespace
}  // namespace ruru
