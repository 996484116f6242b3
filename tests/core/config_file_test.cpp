#include "core/config_file.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>

namespace ruru {
namespace {

TEST(ConfigParse, FlatAndSectionedKeys) {
  const auto r = parse_config_text(
      "top = 1\n"
      "[capture]\n"
      "queues = 8   # inline comment\n"
      "\n"
      "# full-line comment\n"
      "[analytics]\n"
      "threads = 4\n");
  ASSERT_TRUE(r.ok()) << r.error();
  const auto& m = r.value();
  EXPECT_EQ(m.at("top"), "1");
  EXPECT_EQ(m.at("capture.queues"), "8");
  EXPECT_EQ(m.at("analytics.threads"), "4");
}

TEST(ConfigParse, RejectsMalformedLines) {
  EXPECT_FALSE(parse_config_text("just some words\n").ok());
  EXPECT_FALSE(parse_config_text("[unterminated\n").ok());
  EXPECT_FALSE(parse_config_text("[]\n").ok());
  EXPECT_FALSE(parse_config_text("= value\n").ok());
  EXPECT_FALSE(parse_config_text("a = 1\na = 2\n").ok());  // duplicate
}

TEST(ConfigParse, ErrorsNameTheLine) {
  const auto r = parse_config_text("ok = 1\nbroken line\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("line 2"), std::string::npos);
}

TEST(PipelineConfigFile, AppliesOverDefaults) {
  const auto r = pipeline_config_from_text(
      "[capture]\n"
      "queues = 8\n"
      "mempool = 131072\n"
      "[flow]\n"
      "table_capacity = 32768\n"
      "stale_after_s = 10.5\n"
      "[analytics]\n"
      "threads = 4\n"
      "[detectors]\n"
      "synflood = true\n"
      "synflood_min_syns = 500\n"
      "ewma = off\n"
      "periodic = yes\n"
      "periodic_period_s = 86400\n");
  ASSERT_TRUE(r.ok()) << r.error();
  const PipelineConfig& c = r.value();
  EXPECT_EQ(c.num_queues, 8);
  EXPECT_EQ(c.mempool_size, 131072u);
  EXPECT_EQ(c.flow_table_capacity, 32768u);
  EXPECT_EQ(c.flow_stale_after.ns, Duration::from_sec(10.5).ns);
  EXPECT_EQ(c.enrichment_threads, 4u);
  EXPECT_TRUE(c.enable_synflood);
  EXPECT_EQ(c.synflood.min_syns, 500u);
  EXPECT_FALSE(c.enable_ewma);
  EXPECT_TRUE(c.enable_periodic);
  EXPECT_EQ(c.periodic.period.ns, Duration::from_sec(86400).ns);
}

TEST(PipelineConfigFile, DefaultsPreservedForUnsetKeys) {
  PipelineConfig defaults;
  defaults.num_queues = 6;
  const auto r = pipeline_config_from_text("[analytics]\nthreads = 3\n", defaults);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_queues, 6);
  EXPECT_EQ(r.value().enrichment_threads, 3u);
}

TEST(PipelineConfigFile, UnknownKeyIsAnError) {
  const auto r = pipeline_config_from_text("[capture]\nqueuez = 8\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("capture.queuez"), std::string::npos);
}

TEST(PipelineConfigFile, TypeErrorsAreNamed) {
  EXPECT_FALSE(pipeline_config_from_text("[capture]\nqueues = many\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[detectors]\nsynflood = maybe\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[flow]\nstale_after_s = soon\n").ok());
}

TEST(PipelineConfigFile, SanityBounds) {
  EXPECT_FALSE(pipeline_config_from_text("[capture]\nqueues = 0\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[analytics]\nthreads = 0\n").ok());
}

/// Expects `text` to be refused with an error naming `key` and `limit`.
void expect_out_of_range(const std::string& text, const std::string& key,
                         const std::string& limit) {
  const auto r = pipeline_config_from_text(text);
  ASSERT_FALSE(r.ok()) << text;
  EXPECT_NE(r.error().find(key), std::string::npos) << r.error();
  EXPECT_NE(r.error().find(limit), std::string::npos) << r.error();
}

TEST(PipelineConfigFile, QueuesAboveU16MaxRejected) {
  // Narrowing into the 16-bit field would wrap 65537 to 1 queue.
  expect_out_of_range("[capture]\nqueues = 65537\n", "capture.queues", "65535");
}

TEST(PipelineConfigFile, U64OverflowRejected) {
  // 2^64 + 1: unchecked digit accumulation wraps this to 1.
  expect_out_of_range("[capture]\nqueues = 18446744073709551617\n", "capture.queues", "65535");
  // The same overflow into a 64-bit field names the 64-bit limit.
  expect_out_of_range("[detectors]\nsynflood_min_syns = 18446744073709551616\n",
                      "detectors.synflood_min_syns", "18446744073709551615");
}

TEST(PipelineConfigFile, ChunkPointsAboveU32MaxRejected) {
  // Narrowing 2^32 + 1 gives 1 point per chunk.
  expect_out_of_range("[storage]\ntsdb_chunk_points = 4294967297\n",
                      "storage.tsdb_chunk_points", "4294967295");
}

TEST(PipelineConfigFile, TraceSampleNAboveU32MaxRejected) {
  // Narrowing 2^32 gives 0, which silently turns tracing off.
  expect_out_of_range("[obs]\ntrace_sample_n = 4294967296\n", "obs.trace_sample_n",
                      "4294967295");
}

TEST(PipelineConfigFile, StoragePolicyKeys) {
  const auto r = pipeline_config_from_text(
      "[storage]\ndownsample_window_s = 60\ndownsample_stat = p99\nretention_s = 3600\n");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().downsample_window.ns, Duration::from_sec(60).ns);
  EXPECT_EQ(r.value().downsample_stat, "p99");
  EXPECT_EQ(r.value().retention_horizon.ns, Duration::from_sec(3600).ns);
  EXPECT_FALSE(
      pipeline_config_from_text("[storage]\ndownsample_stat = mode\n").ok());
}

TEST(PipelineConfigFile, TsdbEngineKeys) {
  const auto r = pipeline_config_from_text(
      "[storage]\ntsdb_shards = 16\ntsdb_chunk_points = 1024\n");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().tsdb_shards, 16u);
  EXPECT_EQ(r.value().tsdb_chunk_points, 1024u);
  // Bounds: shards in [1, 256], chunk_points >= 1.
  EXPECT_FALSE(pipeline_config_from_text("[storage]\ntsdb_shards = 0\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[storage]\ntsdb_shards = 257\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[storage]\ntsdb_chunk_points = 0\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[storage]\ntsdb_shards = many\n").ok());
}

TEST(PipelineConfigFile, ShardInboxToggle) {
  // The toggle is gone: the pool shards its inbox iff threads > 1 and
  // lanes >= threads.  The former key is refused by name in either
  // spelling; analytics.threads alone still sets the enricher count.
  for (const char* text :
       {"[analytics]\nshard_inbox = false\n", "[analytics]\nshard_inbox = true\n"}) {
    const auto r = pipeline_config_from_text(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_NE(r.error().find("analytics.shard_inbox"), std::string::npos) << r.error();
  }
  const auto threads = pipeline_config_from_text("[analytics]\nthreads = 4\n");
  ASSERT_TRUE(threads.ok()) << threads.error();
  EXPECT_EQ(threads.value().enrichment_threads, 4u);
}

TEST(PipelineConfigFile, PerSampleStorageToggle) {
  // The toggle is gone: every enriched sample is written to the TSDB.
  // The former key is refused by name in either spelling.
  for (const char* text : {"[storage]\nper_sample = true\n", "[storage]\nper_sample = false\n"}) {
    const auto r = pipeline_config_from_text(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_NE(r.error().find("storage.per_sample"), std::string::npos) << r.error();
  }
}

TEST(PipelineConfigFile, LinkMeterKeys) {
  const auto r = pipeline_config_from_text("[meter]\nwindow_s = 5\n");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().link_meter_window.ns, Duration::from_sec(5).ns);
  // The meter always runs (retention is anchored at its last window), so
  // the old on/off switch is refused, by name.
  const auto off = pipeline_config_from_text("[meter]\nenabled = false\n");
  ASSERT_FALSE(off.ok());
  EXPECT_NE(off.error().find("meter.enabled"), std::string::npos) << off.error();
}

TEST(PipelineConfigFile, BusBatchKeys) {
  const auto r = pipeline_config_from_text("[bus]\nbatch = 128\nbatch_linger_s = 0.02\n");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().bus_batch_size, 128u);
  EXPECT_EQ(r.value().bus_batch_linger.ns, Duration::from_sec(0.02).ns);
  // batch = 1 is the un-batched compatibility mode, not an error.
  const auto one = pipeline_config_from_text("[bus]\nbatch = 1\n");
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value().bus_batch_size, 1u);
  // batch = 0 would silently discard every sample: rejected.
  EXPECT_FALSE(pipeline_config_from_text("[bus]\nbatch = 0\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[bus]\nbatch = lots\n").ok());
}

TEST(PipelineConfigFile, InflowRttKeys) {
  const auto r = pipeline_config_from_text(
      "[flow]\n"
      "inflow_rtt = true\n"
      "ts_ring_entries = 16\n"
      "inflow_min_interval_us = 5000\n");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_TRUE(r.value().inflow_rtt);
  EXPECT_EQ(r.value().ts_ring_entries, 16u);
  EXPECT_EQ(r.value().inflow_min_interval_us, 5'000u);

  // Defaults: the kernel is off, ring 8, 10 ms rate limit.
  const auto d = pipeline_config_from_text("");
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(d.value().inflow_rtt);
  EXPECT_EQ(d.value().ts_ring_entries, 8u);
  EXPECT_EQ(d.value().inflow_min_interval_us, 10'000u);
}

TEST(PipelineConfigFile, InflowRttBounds) {
  // Ring entries must be a power of two in [2, 64] (ring indexing masks).
  EXPECT_FALSE(pipeline_config_from_text("[flow]\nts_ring_entries = 1\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[flow]\nts_ring_entries = 3\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[flow]\nts_ring_entries = 48\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[flow]\nts_ring_entries = 128\n").ok());
  const auto err = pipeline_config_from_text("[flow]\nts_ring_entries = 3\n");
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.error().find("ts_ring_entries"), std::string::npos);
  // The rate-limit interval is capped at one minute.
  EXPECT_FALSE(
      pipeline_config_from_text("[flow]\ninflow_min_interval_us = 60000001\n").ok());
  EXPECT_TRUE(pipeline_config_from_text("[flow]\ninflow_min_interval_us = 0\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[flow]\ninflow_rtt = maybe\n").ok());
}

TEST(PipelineConfigFile, WorkerLoopKeys) {
  const auto r =
      pipeline_config_from_text("[flow]\nprefetch_depth = 2\nvector_loop = false\n");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().worker_prefetch_depth, 2u);
  EXPECT_FALSE(r.value().worker_vector_loop);

  // Defaults: lane loop on, lookahead 1.
  const auto d = pipeline_config_from_text("");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().worker_prefetch_depth, 1u);
  EXPECT_TRUE(d.value().worker_vector_loop);

  // Depth 0 (prefetch off) and 4 (the cap) are the limit cases, accepted.
  EXPECT_TRUE(pipeline_config_from_text("[flow]\nprefetch_depth = 0\n").ok());
  EXPECT_TRUE(pipeline_config_from_text("[flow]\nprefetch_depth = 4\n").ok());
  const auto deep = pipeline_config_from_text("[flow]\nprefetch_depth = 5\n");
  ASSERT_FALSE(deep.ok());
  EXPECT_NE(deep.error().find("prefetch_depth"), std::string::npos);
  EXPECT_FALSE(pipeline_config_from_text("[flow]\nvector_loop = maybe\n").ok());
}

TEST(PipelineConfigFile, ProbeWindowKey) {
  const auto r = pipeline_config_from_text("[flow]\nprobe_window = 64\n");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().flow_probe_window, 64u);

  // Must be a power of two >= 16 (whole 16-slot probe groups)...
  const auto odd = pipeline_config_from_text("[flow]\nprobe_window = 48\n");
  ASSERT_FALSE(odd.ok());
  EXPECT_NE(odd.error().find("power of two"), std::string::npos);
  EXPECT_FALSE(pipeline_config_from_text("[flow]\nprobe_window = 8\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[flow]\nprobe_window = 0\n").ok());

  // ...and must fit inside the (rounded) table capacity.
  const auto wide =
      pipeline_config_from_text("[flow]\ntable_capacity = 100\nprobe_window = 256\n");
  ASSERT_FALSE(wide.ok());
  EXPECT_NE(wide.error().find("exceeds flow.table_capacity"), std::string::npos);
  EXPECT_NE(wide.error().find("rounded to 128"), std::string::npos);
  // Window equal to the rounded capacity is the limit case, accepted.
  EXPECT_TRUE(
      pipeline_config_from_text("[flow]\ntable_capacity = 100\nprobe_window = 128\n").ok());
}

TEST(PipelineConfigFile, SymmetricRssToggle) {
  // The toggle is gone: every config runs the symmetric RSS key (both
  // directions of a flow on one queue, which the tracker needs), and
  // the former key is refused by name in either spelling.
  for (const char* text :
       {"[capture]\nsymmetric_rss = true\n", "[capture]\nsymmetric_rss = false\n"}) {
    const auto r = pipeline_config_from_text(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_NE(r.error().find("capture.symmetric_rss"), std::string::npos) << r.error();
  }
  const auto queues = pipeline_config_from_text("[capture]\nqueues = 4\n");
  ASSERT_TRUE(queues.ok()) << queues.error();
  EXPECT_EQ(queues.value().rss_key, symmetric_rss_key());
}

TEST(PipelineConfigFile, LoadsFromFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ruru_cfg_" + std::to_string(::getpid()) + ".conf"))
          .string();
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("[capture]\nqueues = 2\n", f);
  std::fclose(f);
  const auto r = pipeline_config_from_file(path);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().num_queues, 2);
  std::remove(path.c_str());

  EXPECT_FALSE(pipeline_config_from_file("/no/such/ruru.conf").ok());
}

TEST(PipelineConfigFile, EmptyTextYieldsDefaults) {
  const auto r = pipeline_config_from_text("");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_queues, PipelineConfig{}.num_queues);
}

TEST(PipelineConfigFile, TopologyKeys) {
  // Worker lcores and RX queues are 1:1 (one flow table per queue), so
  // capture.queues sets the worker count and analytics.threads the
  // enricher count; [topology] carries only the pin list.
  const auto r = pipeline_config_from_text(
      "[capture]\n"
      "queues = 4\n"
      "[analytics]\n"
      "threads = 2\n"
      "[topology]\n"
      "pin_cpus = 0, 1, -1, 3, 4, 5\n");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().num_queues, 4);
  EXPECT_EQ(r.value().enrichment_threads, 2u);
  EXPECT_EQ(r.value().pin_cpus, (std::vector<int>{0, 1, -1, 3, 4, 5}));
}

TEST(PipelineConfigFile, RemovedAliasKeysAreUnknown) {
  // Keys the parser no longer accepts must fail as unknown, not
  // silently no-op.
  for (const char* text :
       {"[topology]\nworkers = 4\n", "[topology]\nenrichers = 2\n",
        "[capture]\ninject_burst = 8\n", "[capture]\nsymmetric_rss = true\n",
        "[capture]\nsymmetric_rss = false\n", "[analytics]\nshard_inbox = false\n"}) {
    const auto r = pipeline_config_from_text(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_NE(r.error().find("unknown key"), std::string::npos) << r.error();
  }
}

/// `key` in `[section]` must refuse zero, negative, sub-nanosecond and
/// out-of-range durations with an error naming it, and accept a
/// positive one.
void expect_positive_duration_key(const std::string& section, const std::string& key,
                                  const std::string& extra = "") {
  const std::string full = section + "." + key;
  for (const char* bad : {"0", "-1", "0.0", "1e-12", "nan", "1e300"}) {
    const auto r =
        pipeline_config_from_text("[" + section + "]\n" + extra + key + " = " + bad + "\n");
    ASSERT_FALSE(r.ok()) << full << " = " << bad;
    EXPECT_NE(r.error().find(full), std::string::npos) << r.error();
  }
  const auto ok = pipeline_config_from_text("[" + section + "]\n" + extra + key + " = 0.5\n");
  EXPECT_TRUE(ok.ok()) << ok.error();
}

TEST(PipelineConfigFile, MeterWindowMustBePositive) {
  // 0 divided by zero on the first frame; -1 never closed a window.
  expect_positive_duration_key("meter", "window_s");
}

TEST(PipelineConfigFile, SynfloodWindowMustBePositive) {
  expect_positive_duration_key("detectors", "synflood_window_s");
}

TEST(PipelineConfigFile, PeriodicPeriodMustBePositive) {
  expect_positive_duration_key("detectors", "periodic_period_s", "periodic = true\n");
}

TEST(PipelineConfigFile, PeriodicBucketMustBePositive) {
  expect_positive_duration_key("detectors", "periodic_bucket_s", "periodic = true\n");
}

TEST(PipelineConfigFile, StaleAfterMustBePositive) {
  // 0 aged every handshake out before its SYN-ACK: no samples at all.
  expect_positive_duration_key("flow", "stale_after_s");
}

TEST(PipelineConfigFile, PinListMayCoverWorkersOnly) {
  const auto r = pipeline_config_from_text(
      "[capture]\n"
      "queues = 2\n"
      "[analytics]\n"
      "threads = 2\n"
      "[topology]\n"
      "pin_cpus = 0,1\n");  // workers pinned, enrichers roam
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().pin_cpus.size(), 2u);
}

TEST(PipelineConfigFile, PinListLengthMismatchRejected) {
  const auto r = pipeline_config_from_text(
      "[capture]\n"
      "queues = 4\n"
      "[analytics]\n"
      "threads = 2\n"
      "[topology]\n"
      "pin_cpus = 0,1,2\n");  // neither 4 (workers) nor 6 (workers+enrichers)
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("pin_cpus"), std::string::npos);
}

TEST(PipelineConfigFile, PinListBadEntriesRejected) {
  EXPECT_FALSE(pipeline_config_from_text("[topology]\npin_cpus = 0,,1\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[topology]\npin_cpus = 0,banana\n").ok());
  EXPECT_FALSE(pipeline_config_from_text("[topology]\npin_cpus = 0,2000000\n").ok());
}

TEST(PipelineConfigFile, TraceKeys) {
  const auto r = pipeline_config_from_text(
      "[obs]\n"
      "trace_sample_n = 64\n"
      "trace_ring = 8192\n"
      "trace_json_path = /tmp/ruru_trace.json\n");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().trace_sample_n, 64u);
  EXPECT_EQ(r.value().trace_ring_capacity, 8192u);
  EXPECT_EQ(r.value().trace_json_path, "/tmp/ruru_trace.json");
  // Defaults: tracing off.
  EXPECT_EQ(PipelineConfig{}.trace_sample_n, 0u);
  // A zero-slot ring with sampling on cannot hold anything: rejected.
  EXPECT_FALSE(
      pipeline_config_from_text("[obs]\ntrace_sample_n = 64\ntrace_ring = 0\n").ok());
  // trace_ring = 0 with tracing off is harmless (never allocated).
  EXPECT_TRUE(pipeline_config_from_text("[obs]\ntrace_ring = 0\n").ok());
}

TEST(PipelineConfigFile, WatchdogKeys) {
  const auto r = pipeline_config_from_text(
      "[obs]\n"
      "watchdog = true\n"
      "watchdog_interval_s = 0.5\n"
      "watchdog_stall_s = 10\n");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_TRUE(r.value().watchdog_enabled);
  EXPECT_EQ(r.value().watchdog_interval.ns, Duration::from_sec(0.5).ns);
  EXPECT_EQ(r.value().watchdog_stall_after.ns, Duration::from_sec(10.0).ns);
  EXPECT_FALSE(PipelineConfig{}.watchdog_enabled);
  // Non-positive timings with the watchdog armed: rejected.
  EXPECT_FALSE(
      pipeline_config_from_text("[obs]\nwatchdog = on\nwatchdog_interval_s = 0\n").ok());
  EXPECT_FALSE(
      pipeline_config_from_text("[obs]\nwatchdog = on\nwatchdog_stall_s = -1\n").ok());
  // The same zeros with the watchdog off never run: accepted.
  EXPECT_TRUE(pipeline_config_from_text("[obs]\nwatchdog_interval_s = 0\n").ok());
}

}  // namespace
}  // namespace ruru
