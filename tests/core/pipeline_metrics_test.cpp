// End-to-end checks that the telemetry layer observes a real run: the
// summary is a view over the registry, histograms fill when metrics are
// on, the self-ingest exporter lands "ruru.self.*" series in the TSDB,
// and the Prometheus file appears on disk.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>

#include "capture/scenarios.hpp"
#include "core/pipeline.hpp"
#include "core/replay.hpp"
#include "geo/world.hpp"
#include "obs/exporters.hpp"

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

class PipelineMetricsTest : public ::testing::Test {
 protected:
  PipelineMetricsTest() : world_(scenario_world()) {}

  PipelineConfig metrics_config() {
    PipelineConfig cfg;
    cfg.num_queues = 2;
    cfg.enrichment_threads = 2;
    cfg.flow_table_capacity = 1 << 12;
    cfg.metrics_enabled = true;
    cfg.metrics_interval = Duration::from_ms(50);
    cfg.transit_sample_every = 1;  // every bus message hits the transit hist
    return cfg;
  }

  void replay(RuruPipeline& pipeline) {
    auto model = scenarios::transpacific(/*seed=*/21, /*flows_per_sec=*/200.0,
                                         Duration::from_sec(3.0));
    pipeline.start();
    replay_scenario(pipeline, model);
    pipeline.finish();
  }

  World world_;
};

TEST_F(PipelineMetricsTest, SummaryIsAViewOverTheRegistry) {
  RuruPipeline pipeline(metrics_config(), world_.geo, world_.as);
  replay(pipeline);

  const PipelineSummary summary = pipeline.summary();
  const obs::MetricsSnapshot snap = pipeline.metrics().snapshot(Timestamp{});

  EXPECT_GT(summary.nic.rx_packets, 0u);
  EXPECT_EQ(summary.nic.rx_packets, snap.counter_or("nic.rx_packets"));
  EXPECT_EQ(summary.workers.packets, snap.counter_or("worker.packets"));
  EXPECT_EQ(summary.tracker.samples_emitted, snap.counter_or("tracker.samples_emitted"));
  EXPECT_EQ(summary.enriched, snap.counter_or("enrich.processed"));
  EXPECT_EQ(summary.tsdb_points, snap.counter_or("tsdb.points"));
}

TEST_F(PipelineMetricsTest, HotPathHistogramsFillWhenEnabled) {
  RuruPipeline pipeline(metrics_config(), world_.geo, world_.as);
  replay(pipeline);

  const obs::MetricsSnapshot snap = pipeline.metrics().snapshot(Timestamp{});
  const obs::HistogramStats* poll = snap.histogram("worker.poll_batch");
  ASSERT_NE(poll, nullptr);
  EXPECT_GT(poll->count, 0u);
  EXPECT_GE(poll->min, 1);  // empty polls are not recorded

  const obs::HistogramStats* transit = snap.histogram("pipeline.transit_ns");
  ASSERT_NE(transit, nullptr);
  EXPECT_GT(transit->count, 0u);
  EXPECT_GT(transit->max, 0);  // wall-clock anchored: strictly positive

  const obs::HistogramStats* wait = snap.histogram("bus.queue_wait_ns");
  ASSERT_NE(wait, nullptr);
  EXPECT_GT(wait->count, 0u);

  const obs::HistogramStats* tsdb = snap.histogram("tsdb.write_ns");
  ASSERT_NE(tsdb, nullptr);
  EXPECT_GT(tsdb->count, 0u);
}

TEST_F(PipelineMetricsTest, HistogramsStayEmptyWhenDisabled) {
  PipelineConfig cfg = metrics_config();
  cfg.metrics_enabled = false;
  RuruPipeline pipeline(cfg, world_.geo, world_.as);
  replay(pipeline);

  const obs::MetricsSnapshot snap = pipeline.metrics().snapshot(Timestamp{});
  // Counters still work (the summary depends on them)...
  EXPECT_GT(snap.counter_or("nic.rx_packets"), 0u);
  // ...but no histogram is even registered: zero hot-path timing cost.
  EXPECT_EQ(snap.histogram("worker.poll_batch"), nullptr);
  EXPECT_EQ(snap.histogram("pipeline.transit_ns"), nullptr);
}

TEST_F(PipelineMetricsTest, SelfIngestLandsSeriesInTheTsdb) {
  RuruPipeline pipeline(metrics_config(), world_.geo, world_.as);
  replay(pipeline);

  // The stop() final tick guarantees at least one export even if the
  // run was shorter than the snapshot interval.
  const Timestamp t0;
  const Timestamp t1 = Timestamp::from_sec(1e9);
  const auto rx = pipeline.tsdb().aggregate("ruru.self.nic.rx_packets",
                                            TagSet{}.add("stat", "total"), t0, t1);
  ASSERT_GT(rx.count, 0u);
  EXPECT_DOUBLE_EQ(rx.max, static_cast<double>(pipeline.summary().nic.rx_packets));

  const auto transit = pipeline.tsdb().aggregate("ruru.self.pipeline.transit_ns",
                                                 TagSet{}.add("stat", "p95"), t0, t1);
  ASSERT_GT(transit.count, 0u);
  EXPECT_GT(transit.max, 0.0);
}

TEST_F(PipelineMetricsTest, InflowCountersAndHistogramExport) {
  const std::string path = ::testing::TempDir() + "ruru_inflow_metrics_test.prom";
  std::remove(path.c_str());

  PipelineConfig cfg = metrics_config();
  cfg.inflow_rtt = true;
  cfg.metrics_prometheus_path = path;
  RuruPipeline pipeline(cfg, world_.geo, world_.as);
  replay(pipeline);

  const obs::MetricsSnapshot snap = pipeline.metrics().snapshot(Timestamp{});
  EXPECT_GT(snap.counter_or("flow.ts_matches"), 0u);
  EXPECT_GT(snap.counter_or("flow.inflow_samples"), 0u);
  EXPECT_GT(snap.counter_or("worker.inflow_consumed"), 0u);
  // Eviction/wrap counters exist even when this scenario never trips them.
  EXPECT_NE(snap.counter("flow.ts_ring_evictions"), nullptr);
  EXPECT_NE(snap.counter("flow.ts_wraps"), nullptr);

  const obs::HistogramStats* rtt = snap.histogram("flow.inflow_rtt_ns");
  ASSERT_NE(rtt, nullptr);
  EXPECT_GT(rtt->count, 0u);
  EXPECT_GT(rtt->min, 0);

  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << "no prometheus file at " << path;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("# TYPE ruru_flow_ts_matches counter\n"), std::string::npos);
  EXPECT_NE(text.find("ruru_flow_inflow_rtt_ns_count"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(PipelineMetricsTest, InflowHistogramAbsentWhenFeatureOff) {
  RuruPipeline pipeline(metrics_config(), world_.geo, world_.as);
  replay(pipeline);
  const obs::MetricsSnapshot snap = pipeline.metrics().snapshot(Timestamp{});
  EXPECT_EQ(snap.counter_or("flow.ts_matches"), 0u);
  EXPECT_EQ(snap.histogram("flow.inflow_rtt_ns"), nullptr);
}

TEST_F(PipelineMetricsTest, PrometheusFileIsWrittenWhenPathSet) {
  const std::string path = ::testing::TempDir() + "ruru_metrics_test.prom";
  std::remove(path.c_str());

  PipelineConfig cfg = metrics_config();
  cfg.metrics_prometheus_path = path;
  RuruPipeline pipeline(cfg, world_.geo, world_.as);
  replay(pipeline);

  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << "no prometheus file at " << path;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("# TYPE ruru_nic_rx_packets counter\n"), std::string::npos);
  EXPECT_NE(text.find("ruru_pipeline_transit_ns_count"), std::string::npos);
  std::remove(path.c_str());
}

/// A stage counter as this test expects it: registry name and the cell
/// it must read.  Spelled out here, apart from the pipeline's own tables,
/// so a dropped, misnamed or miswired table entry fails.
template <typename Stats>
using ExpectedCounters = std::vector<std::pair<std::string, StatCell Stats::*>>;

TEST(PipelineCounters, EveryStageCounterAgreesWithItsStageStruct) {
  const World world = scenario_world();
  PipelineConfig cfg;
  cfg.num_queues = 2;
  cfg.enrichment_threads = 1;
  cfg.inflow_rtt = true;
  cfg.flow_table_capacity = 1 << 10;  // the SYN burst overflows it
  RuruPipeline pipeline(cfg, world.geo, world.as);
  auto model = scenarios::syn_flood(/*seed=*/13, /*benign_flows_per_sec=*/300.0,
                                    /*flood_syns_per_sec=*/4000.0, Duration::from_sec(2.0),
                                    Timestamp::from_sec(0.5), Duration::from_sec(1.0));
  pipeline.start();
  replay_scenario(pipeline, model);
  pipeline.finish();

  const obs::MetricsSnapshot snap = pipeline.metrics().snapshot(Timestamp{});
  const PipelineSummary summary = pipeline.summary();
  std::size_t names = 0;
  std::size_t nonzero = 0;
  // `want` is the stage struct's own value; the registry counter must
  // match it, and so must `in_summary` when the summary carries it.
  const auto check = [&](const std::string& name, std::uint64_t want,
                         const StatCell* in_summary) {
    SCOPED_TRACE(name);
    ++names;
    nonzero += want != 0 ? 1 : 0;
    const std::uint64_t* got = snap.counter(name);
    ASSERT_NE(got, nullptr) << "not registered";
    EXPECT_EQ(*got, want);
    if (in_summary != nullptr) {
      EXPECT_EQ(in_summary->load(), want);
    }
  };
  // Each entry of `table` against its cell summed over the workers (`of`
  // picks a worker's struct), and against `in_summary`'s cell if given.
  const auto check_summed = [&](const auto& table, auto of, const auto* in_summary) {
    for (const auto& [name, cell] : table) {
      std::uint64_t total = 0;
      for (std::uint16_t q = 0; q < cfg.num_queues; ++q) {
        total += (of(pipeline.worker(q)).*cell).load();
      }
      check(name, total, in_summary != nullptr ? &(in_summary->*cell) : nullptr);
    }
  };

  const NicStats nic = pipeline.nic().stats_totals();
  const ExpectedCounters<NicStats> nic_counters = {
      {"nic.rx_packets", &NicStats::rx_packets},
      {"nic.rx_bytes", &NicStats::rx_bytes},
      {"nic.dropped_no_mbuf", &NicStats::dropped_no_mbuf},
      {"nic.dropped_queue_full", &NicStats::dropped_queue_full},
      {"nic.dropped_oversize", &NicStats::dropped_oversize},
      {"nic.dropped_misrouted", &NicStats::dropped_misrouted}};
  for (const auto& [name, cell] : nic_counters) {
    check(name, (nic.*cell).load(), &(summary.nic.*cell));
  }

  check_summed(
      ExpectedCounters<WorkerStats>{
          {"worker.polls", &WorkerStats::polls},
          {"worker.empty_polls", &WorkerStats::empty_polls},
          {"worker.parks", &WorkerStats::parks},
          {"worker.packets", &WorkerStats::packets},
          {"worker.bytes", &WorkerStats::bytes},
          {"worker.fast_path_skips", &WorkerStats::fast_path_skips},
          {"worker.inflow_consumed", &WorkerStats::inflow_consumed},
          {"worker.batch_flushes", &WorkerStats::batch_flushes},
          {"worker.batched_samples", &WorkerStats::batched_samples},
          {"worker.lane_skip", &WorkerStats::lane_skip},
          {"worker.lane_established", &WorkerStats::lane_established},
          {"worker.lane_need_parse", &WorkerStats::lane_need_parse},
          {"worker.lane_revalidated", &WorkerStats::lane_revalidated},
          {"worker.classify_reprobes", &WorkerStats::classify_reprobes}},
      [](const QueueWorker& w) -> const WorkerStats& { return w.stats(); }, &summary.workers);
  const std::vector<std::string> parse_names = {"worker.parse_ok", "worker.parse_not_ip",
                                                "worker.parse_not_tcp", "worker.parse_fragment",
                                                "worker.parse_malformed"};
  for (std::size_t i = 0; i < parse_names.size(); ++i) {
    std::uint64_t total = 0;
    for (std::uint16_t q = 0; q < cfg.num_queues; ++q) {
      total += pipeline.worker(q).stats().parse_status[i].load();
    }
    check(parse_names[i], total, &summary.workers.parse_status[i]);
  }
  check_summed(
      ExpectedCounters<TrackerStats>{
          {"tracker.syn_seen", &TrackerStats::syn_seen},
          {"tracker.syn_retransmissions", &TrackerStats::syn_retransmissions},
          {"tracker.synack_seen", &TrackerStats::synack_seen},
          {"tracker.synack_unmatched", &TrackerStats::synack_unmatched},
          {"tracker.ack_matched", &TrackerStats::ack_matched},
          {"tracker.rst_seen", &TrackerStats::rst_seen},
          {"tracker.samples_emitted", &TrackerStats::samples_emitted},
          {"tracker.table_drops", &TrackerStats::table_drops}},
      [](const QueueWorker& w) -> const TrackerStats& { return w.tracker_stats(); },
      &summary.tracker);
  check_summed(
      ExpectedCounters<FlowTableStats>{
          {"flow.inserts", &FlowTableStats::inserts},
          {"flow.hits", &FlowTableStats::hits},
          {"flow.evictions_stale", &FlowTableStats::evictions_stale},
          {"flow.insert_failures", &FlowTableStats::insert_failures},
          {"flow.erases", &FlowTableStats::erases},
          {"flow.tag_mismatches", &FlowTableStats::tag_mismatches},
          {"flow.sweep_evictions", &FlowTableStats::sweep_evictions}},
      [](const QueueWorker& w) -> const FlowTableStats& { return w.tracker().table().stats(); },
      static_cast<const FlowTableStats*>(nullptr));
  check_summed(
      ExpectedCounters<InflowStats>{
          {"flow.ts_matches", &InflowStats::ts_matches},
          {"flow.ts_ring_evictions", &InflowStats::ts_ring_evictions},
          {"flow.ts_wraps", &InflowStats::ts_wraps},
          {"flow.inflow_samples", &InflowStats::inflow_samples},
          {"flow.one_sided_samples", &InflowStats::one_sided_samples},
          {"flow.inflow_rate_limited", &InflowStats::rate_limited}},
      [](const QueueWorker& w) -> const InflowStats& { return w.tracker().inflow_stats(); },
      static_cast<const InflowStats*>(nullptr));

  EXPECT_EQ(names, 46u);
  // Distinct non-zero values are what expose a swapped cell; the burst
  // and the in-flow kernel make most of them count.
  EXPECT_GE(nonzero, 25u);
}

std::int64_t cpu_ns(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1'000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

/// CPU time of every thread of the process but the calling one.
std::int64_t other_threads_cpu_ns() { return cpu_ns(RUSAGE_SELF) - cpu_ns(RUSAGE_THREAD); }

// The per-stage thread clocks account for the pipeline's CPU: with
// metrics, snapshots and the watchdog off, the workers and the enricher
// are the only threads besides this one, which plays the NIC.
TEST(PipelineCounters, StageCpuClocksAddUpToPipelineThreadCpu) {
  const World world = scenario_world();
  PipelineConfig cfg;
  cfg.num_queues = 2;
  cfg.enrichment_threads = 1;
  RuruPipeline pipeline(cfg, world.geo, world.as);
  auto model = scenarios::transpacific(/*seed=*/21, /*flows_per_sec=*/4000.0,
                                       Duration::from_sec(3600.0));
  constexpr std::int64_t kEnoughNs = 200'000'000;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  const std::int64_t before = other_threads_cpu_ns();
  pipeline.start();
  std::vector<TimedFrame> frames;
  std::vector<RxFrame> burst;
  for (std::uint64_t bursts = 0;; ++bursts) {
    if (bursts % 64 == 0 && (other_threads_cpu_ns() - before >= kEnoughNs ||
                             std::chrono::steady_clock::now() > deadline)) {
      break;
    }
    frames.clear();
    burst.clear();
    while (frames.size() < QueueWorker::kBurst) frames.push_back(*model.next());
    for (const TimedFrame& f : frames) burst.push_back({f.frame, f.timestamp});
    pipeline.inject_burst(burst);
  }
  pipeline.finish();
  const std::int64_t used = other_threads_cpu_ns() - before;
  ASSERT_GE(used, kEnoughNs);

  const PipelineSummary summary = pipeline.summary();
  EXPECT_GT(summary.worker_cpu_ns, 0u);
  EXPECT_GT(summary.enrich_cpu_ns, 0u);
  const auto metered = static_cast<double>(summary.worker_cpu_ns + summary.enrich_cpu_ns);
  EXPECT_NEAR(metered, static_cast<double>(used), 0.1 * static_cast<double>(used));
}

}  // namespace
}  // namespace ruru
