#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "analytics/filter.hpp"
#include "anomaly/alert_codec.hpp"
#include "capture/scenarios.hpp"
#include "core/replay.hpp"
#include "geo/world.hpp"
#include "net/packet_builder.hpp"

namespace ruru {
namespace {

// Builds the world matching the scenario site plan.
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

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() : world_(scenario_world()) {}

  PipelineConfig small_config() {
    PipelineConfig cfg;
    cfg.num_queues = 2;
    cfg.enrichment_threads = 2;
    cfg.flow_table_capacity = 1 << 12;
    return cfg;
  }

  World world_;
};

TEST_F(PipelineTest, ManualHandshakeFlowsThroughAllStages) {
  RuruPipeline pipeline(small_config(), world_.geo, world_.as);
  pipeline.start();

  const Ipv4Address client(10, 1, 0, 5);   // Auckland block
  const Ipv4Address server(10, 2, 0, 9);   // Los Angeles block
  TcpFrameSpec syn;
  syn.src_ip = client;
  syn.dst_ip = server;
  syn.src_port = 40'000;
  syn.dst_port = 443;
  syn.seq = 100;
  syn.flags = TcpFlags::kSyn;
  ASSERT_TRUE(pipeline.inject(build_tcp_frame(syn), Timestamp::from_ms(1000)));

  TcpFrameSpec synack;
  synack.src_ip = server;
  synack.dst_ip = client;
  synack.src_port = 443;
  synack.dst_port = 40'000;
  synack.seq = 900;
  synack.ack = 101;
  synack.flags = TcpFlags::kSyn | TcpFlags::kAck;
  ASSERT_TRUE(pipeline.inject(build_tcp_frame(synack), Timestamp::from_ms(1128)));

  TcpFrameSpec ack;
  ack.src_ip = client;
  ack.dst_ip = server;
  ack.src_port = 40'000;
  ack.dst_port = 443;
  ack.seq = 101;
  ack.ack = 901;
  ack.flags = TcpFlags::kAck;
  ASSERT_TRUE(pipeline.inject(build_tcp_frame(ack), Timestamp::from_ms(1133)));

  pipeline.finish();

  const auto summary = pipeline.summary();
  EXPECT_EQ(summary.nic.rx_packets, 3u);
  EXPECT_EQ(summary.tracker.samples_emitted, 1u);
  EXPECT_EQ(summary.enriched, 1u);
  EXPECT_EQ(summary.bus_dropped, 0u);

  // City pair aggregation saw Auckland -> Los Angeles.
  const auto pairs = pipeline.city_pairs().summaries();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].key, "Auckland|Los Angeles");
  EXPECT_EQ(pairs[0].connections, 1u);
  EXPECT_EQ(pairs[0].median_total.ns, pairs[0].min_total.ns);

  // TSDB holds the three latency measurements with geo/AS tags, plus the
  // link-load windows (one mbps + one pps point for the single window).
  const auto link = pipeline.tsdb().aggregate("link_pps", TagSet{}, Timestamp{},
                                              Timestamp::from_sec(10));
  EXPECT_EQ(link.count, 1u);
  EXPECT_DOUBLE_EQ(link.mean, 3.0);  // 3 packets in the 1 s window
  EXPECT_EQ(pipeline.tsdb().points_written(), 3u + 2u);
  TagSet filter;
  filter.add("src_city", "Auckland");
  const auto agg = pipeline.tsdb().aggregate("total_ms", filter, Timestamp{},
                                             Timestamp::from_sec(10));
  EXPECT_EQ(agg.count, 1u);
  EXPECT_NEAR(agg.mean, 133.0, 0.001);

  // The viz aggregator saw one arc with real coordinates.
  const auto frame = pipeline.arcs().cut_frame(Timestamp::from_sec(2));
  ASSERT_EQ(frame.arcs.size(), 1u);
  EXPECT_NEAR(frame.arcs[0].src_lat, -36.8485, 0.01);
}

TEST_F(PipelineTest, ScenarioReplayEndToEndCounts) {
  RuruPipeline pipeline(small_config(), world_.geo, world_.as);
  pipeline.start();
  auto model = scenarios::transpacific(21, 200.0, Duration::from_sec(3.0));
  const ReplayStats stats = replay_scenario(pipeline, model);
  pipeline.finish();

  EXPECT_EQ(stats.inject_drops, 0u);
  const auto summary = pipeline.summary();
  EXPECT_EQ(summary.nic.rx_packets, stats.frames);

  // Every completed handshake in the ground truth produced a sample.
  std::uint64_t expected = 0;
  for (const auto& t : model.truth()) {
    if (t.handshake_completes) ++expected;
  }
  EXPECT_EQ(summary.tracker.samples_emitted, expected);
  EXPECT_EQ(summary.enriched, expected);
  EXPECT_EQ(pipeline.city_pairs().total_connections(), expected);
  // No endpoint should be unlocated: the world covers the site plan.
  EXPECT_EQ(summary.unlocated, 0u);
}

TEST_F(PipelineTest, FinishIsIdempotentAndDestructorSafe) {
  auto pipeline = std::make_unique<RuruPipeline>(small_config(), world_.geo, world_.as);
  pipeline->start();
  pipeline->finish();
  pipeline->finish();
  pipeline.reset();  // destructor after finish: no hang
}

TEST_F(PipelineTest, SummaryToStringMentionsKeyCounters) {
  RuruPipeline pipeline(small_config(), world_.geo, world_.as);
  pipeline.start();
  pipeline.finish();
  const std::string s = pipeline.summary().to_string();
  EXPECT_NE(s.find("rx="), std::string::npos);
  EXPECT_NE(s.find("samples="), std::string::npos);
}

TEST_F(PipelineTest, AsymmetricRssBreaksMeasurementOnMultiQueue) {
  // The ablation behind the paper's symmetric-RSS choice: with the
  // standard (asymmetric) key and multiple queues, SYN and SYN-ACK land
  // on different workers' flow tables, so almost no handshake completes.
  auto cfg = small_config();
  cfg.num_queues = 8;
  cfg.rss_key = default_rss_key();
  RuruPipeline broken(cfg, world_.geo, world_.as);
  broken.start();
  auto model = scenarios::transpacific(77, 300.0, Duration::from_sec(2.0));
  replay_scenario(broken, model);
  broken.finish();

  std::uint64_t completed = 0;
  for (const auto& t : model.truth()) {
    if (t.handshake_completes) ++completed;
  }
  ASSERT_GT(completed, 100u);
  const auto measured = broken.summary().tracker.samples_emitted;
  // Only the ~1/8 of flows whose two directions happen to share a queue
  // get measured. Generous bound: < 1/3 of the truth.
  EXPECT_LT(measured, completed / 3)
      << "asymmetric RSS should break handshake matching, got " << measured << "/" << completed;

  // Same scenario with the symmetric key: everything measured.
  auto fixed_cfg = small_config();
  fixed_cfg.num_queues = 8;
  RuruPipeline fixed(fixed_cfg, world_.geo, world_.as);
  fixed.start();
  auto model2 = scenarios::transpacific(77, 300.0, Duration::from_sec(2.0));
  replay_scenario(fixed, model2);
  fixed.finish();
  EXPECT_EQ(fixed.summary().tracker.samples_emitted, completed);
}

TEST_F(PipelineTest, FilterModuleAsCustomSink) {
  // The §2 extension, end to end: a geo filter module interposed on the
  // enriched stream, counting only NZ->GB connections over 200 ms.
  RuruPipeline pipeline(small_config(), world_.geo, world_.as);
  std::atomic<int> slow_to_london{0};
  auto chain = std::make_shared<FilterChain>(
      [&](const EnrichedSample&) { slow_to_london.fetch_add(1); });
  chain->add(SampleFilter::city("London"))
      .add(SampleFilter::latency_at_least(Duration::from_ms(200)));
  pipeline.add_enriched_sink([chain](const EnrichedSample& s) { (*chain)(s); });

  pipeline.start();
  auto model = scenarios::transpacific(42, 300.0, Duration::from_sec(2.0));
  replay_scenario(pipeline, model);
  pipeline.finish();

  EXPECT_EQ(chain->seen(), pipeline.summary().enriched);
  EXPECT_GT(slow_to_london.load(), 0);  // AKL->London sits around 265 ms
  EXPECT_EQ(static_cast<std::uint64_t>(slow_to_london.load()), chain->forwarded());
  EXPECT_LT(chain->forwarded(), chain->seen());  // it actually filtered
}

TEST_F(PipelineTest, AlertsArePublishedOnTheBus) {
  auto cfg = small_config();
  cfg.synflood.min_syns = 100;
  RuruPipeline pipeline(cfg, world_.geo, world_.as);
  auto alert_sub = pipeline.subscribe("ruru.alerts");
  pipeline.start();
  auto model = scenarios::syn_flood(12, 20.0, 1500.0, Duration::from_sec(3.0),
                                    Timestamp::from_sec(1.0), Duration::from_sec(1.0));
  replay_scenario(pipeline, model);
  pipeline.finish();

  ASSERT_GT(pipeline.alerts().count(), 0u);
  int received = 0;
  while (auto m = alert_sub->try_recv()) {
    ASSERT_EQ(m->frames.size(), 2u);
    const auto alert = decode_alert(m->frames[1]);
    ASSERT_TRUE(alert.has_value());
    if (alert->kind == "syn-flood") {
      EXPECT_EQ(alert->subject, "10.1.0.80");
      ++received;
    }
  }
  EXPECT_GE(received, 1);
}

/// Alerts of `kind` read off `sub` so far, polling for up to 10 s until
/// at least `want` have arrived.
std::vector<Alert> await_alerts(Subscription& sub, const std::string& kind, std::size_t want) {
  std::vector<Alert> got;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (got.size() < want && std::chrono::steady_clock::now() < deadline) {
    if (const auto m = sub.try_recv()) {
      const auto alert = decode_alert(m->frames[1]);
      if (alert && alert->kind == kind) got.push_back(*alert);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return got;
}

std::size_t count_kind(const AlertLog& log, const std::string& kind) {
  const std::vector<Alert> all = log.snapshot();
  return static_cast<std::size_t>(
      std::count_if(all.begin(), all.end(), [&kind](const Alert& a) { return a.kind == kind; }));
}

TEST_F(PipelineTest, SynFloodAlertIsRaisedBeforeFinish) {
  // The flood fills [1 s, 2 s); benign SYNs after 2 s close that window
  // on a worker thread, which raises the alert there and then.
  auto cfg = small_config();
  cfg.synflood.min_syns = 100;
  RuruPipeline pipeline(cfg, world_.geo, world_.as);
  auto alert_sub = pipeline.subscribe("ruru.alerts");
  pipeline.start();
  auto model = scenarios::syn_flood(12, 20.0, 1500.0, Duration::from_sec(3.0),
                                    Timestamp::from_sec(1.0), Duration::from_sec(1.0));
  replay_scenario(pipeline, model);

  const std::vector<Alert> live = await_alerts(*alert_sub, "syn-flood", 1);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].subject, "10.1.0.80");
  EXPECT_EQ(live[0].time.ns, Timestamp::from_sec(1.0).ns);
  EXPECT_GE(count_kind(pipeline.alerts(), "syn-flood"), 1u);
  pipeline.finish();
}

TEST_F(PipelineTest, ConnCountAlertsArePublishedOnTheBus) {
  // A quiet Auckland -> Los Angeles baseline of 2 connections per 1 s
  // window, a 60-connection surge in window 6, then one handshake in
  // window 7: its sample closes the surge window on an enricher thread.
  auto cfg = small_config();
  cfg.conncount.window = Duration::from_sec(1.0);
  cfg.conncount.warmup_windows = 3;
  cfg.conncount.min_count = 20;
  RuruPipeline pipeline(cfg, world_.geo, world_.as);
  auto alert_sub = pipeline.subscribe("ruru.alerts");
  pipeline.start();

  std::uint16_t port = 40'000;
  std::uint64_t handshakes = 0;
  const auto handshake = [&](Timestamp t) {
    TcpFrameSpec spec;
    spec.src_ip = Ipv4Address(10, 1, 0, 5);  // Auckland block
    spec.dst_ip = Ipv4Address(10, 2, 0, 9);  // Los Angeles block
    spec.src_port = port++;
    spec.dst_port = 443;
    spec.seq = 100;
    spec.flags = TcpFlags::kSyn;
    ASSERT_TRUE(pipeline.inject(build_tcp_frame(spec), t));
    TcpFrameSpec synack = spec;
    std::swap(synack.src_ip, synack.dst_ip);
    std::swap(synack.src_port, synack.dst_port);
    synack.seq = 900;
    synack.ack = 101;
    synack.flags = TcpFlags::kSyn | TcpFlags::kAck;
    ASSERT_TRUE(pipeline.inject(build_tcp_frame(synack), t + Duration::from_ms(128)));
    spec.seq = 101;
    spec.ack = 901;
    spec.flags = TcpFlags::kAck;
    ASSERT_TRUE(pipeline.inject(build_tcp_frame(spec), t + Duration::from_ms(133)));
    ++handshakes;
  };
  // Each window's samples are enriched before the next window starts, so
  // the enrichers see the windows in order whatever lane a flow lands on.
  const auto enriched_all = [&] {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (pipeline.enrichment().processed() < handshakes &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pipeline.enrichment().processed() == handshakes;
  };
  for (int w = 0; w < 8; ++w) {
    const int n = w == 6 ? 60 : w == 7 ? 1 : 2;
    for (int i = 0; i < n; ++i) {
      handshake(Timestamp::from_sec(w) + Duration::from_ms(5 * i));
    }
    ASSERT_TRUE(enriched_all()) << "window " << w;
  }

  const std::vector<Alert> live = await_alerts(*alert_sub, "conn-count", 1);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].subject, "Auckland|Los Angeles");
  EXPECT_EQ(live[0].time.ns, Timestamp::from_sec(6.0).ns);
  EXPECT_EQ(count_kind(pipeline.alerts(), "conn-count"), 1u);
  pipeline.finish();
  EXPECT_EQ(pipeline.summary().bus_published, handshakes);  // latency samples only
}

TEST_F(PipelineTest, StoragePolicyDownsamplesAndAgesOutRaw) {
  auto cfg = small_config();
  cfg.downsample_window = Duration::from_sec(1.0);
  cfg.downsample_stat = "median";
  cfg.retention_horizon = Duration::from_sec(1.0);  // keep only the last 1 s raw
  RuruPipeline pipeline(cfg, world_.geo, world_.as);
  pipeline.start();
  auto model = scenarios::transpacific(31, 200.0, Duration::from_sec(4.0));
  replay_scenario(pipeline, model);
  pipeline.finish();

  const auto everything = Timestamp::from_sec(1e6);
  // Downsampled medians exist across the whole run...
  const auto ds = pipeline.tsdb().aggregate("total_ms_median", TagSet{}, Timestamp{}, everything);
  EXPECT_GT(ds.count, 0u);
  EXPECT_NEAR(ds.median, 140.0, 40.0);
  // ...while raw samples older than the horizon were aged out (the
  // capture spans ~4-5 s; everything before t=2 s is certainly stale).
  const auto old_raw =
      pipeline.tsdb().aggregate("total_ms", TagSet{}, Timestamp{}, Timestamp::from_sec(2.0));
  EXPECT_EQ(old_raw.count, 0u);
  const auto all_raw = pipeline.tsdb().aggregate("total_ms", TagSet{}, Timestamp{}, everything);
  EXPECT_LT(all_raw.count, pipeline.summary().enriched);  // most raw aged out
  // Link series survive retention (not in the raw-only list).
  EXPECT_GT(pipeline.tsdb().aggregate("link_pps", TagSet{}, Timestamp{}, everything).count, 1u);
}

TEST_F(PipelineTest, QueueCountIsRespected) {
  auto cfg = small_config();
  cfg.num_queues = 4;
  RuruPipeline pipeline(cfg, world_.geo, world_.as);
  EXPECT_EQ(pipeline.nic().num_queues(), 4);
  pipeline.start();
  auto model = scenarios::transpacific(5, 300.0, Duration::from_sec(1.0));
  replay_scenario(pipeline, model);
  pipeline.finish();
  // Samples arrived from more than one queue (RSS spread).
  const auto frame = pipeline.arcs().cut_frame(Timestamp::from_sec(100));
  EXPECT_FALSE(frame.arcs.empty());
}

}  // namespace
}  // namespace ruru
