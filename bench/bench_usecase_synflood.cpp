// E4 / §3 use case — SYN flood and connection-count anomalies in real time.
//
// Sweeps flood intensity and reports detection (0/1), detection latency
// from flood start, alert counts and the false-positive control on clean
// traffic.  Expected shape: floods well above the benign SYN rate are
// caught within one detection window; clean runs raise nothing.

#include <benchmark/benchmark.h>

#include "anomaly/synflood_detector.hpp"
#include "bench_util.hpp"
#include "flow/handshake_tracker.hpp"
#include "net/packet_view.hpp"

namespace {

using namespace ruru;

struct FloodRun {
  bool detected = false;
  double detection_latency_s = -1;
  int alerts = 0;
  std::uint64_t syns_processed = 0;
};

FloodRun run_flood(double flood_rate, std::uint64_t seed) {
  const Timestamp flood_start = Timestamp::from_sec(2.0);
  auto model = scenarios::syn_flood(seed, 50.0, flood_rate, Duration::from_sec(6.0), flood_start,
                                    Duration::from_sec(2.0));

  SynFloodConfig cfg;
  cfg.window = Duration::from_sec(1.0);
  cfg.min_syns = 200;
  std::vector<Alert> alerts;
  SynFloodDetector detector(cfg, [&alerts](Alert a) { alerts.push_back(std::move(a)); });
  HandshakeTracker tracker(1 << 16);

  FloodRun r;
  while (auto f = model.next()) {
    PacketView view;
    if (parse_packet(f->frame, view) != ParseStatus::kOk) continue;
    if (view.tcp.is_syn_only() && view.is_v4) {
      detector.on_syn(f->timestamp, view.ip4.dst);
      ++r.syns_processed;
    }
    const auto rss = static_cast<std::uint32_t>(FlowKey::from(view.tuple()).hash());
    if (auto s = tracker.process(view, f->timestamp, rss, 0)) {
      if (s->server.is_v4()) detector.on_completion(s->ack_time, s->server.v4);
    }
  }
  detector.flush();
  for (const auto& a : alerts) {
    if (a.kind != "syn-flood") continue;
    ++r.alerts;
    const double latency = (a.time + cfg.window - flood_start).to_sec();
    if (!r.detected || latency < r.detection_latency_s) r.detection_latency_s = latency;
    r.detected = true;
  }
  return r;
}

void BM_SynFloodDetection(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0));
  FloodRun r;
  for (auto _ : state) {
    r = run_flood(rate, 0xF164);
    benchmark::DoNotOptimize(r);
  }
  state.counters["detected"] = r.detected ? 1 : 0;
  state.counters["detect_latency_s"] = r.detection_latency_s;
  state.counters["alerts"] = r.alerts;
  state.counters["syns"] = static_cast<double>(r.syns_processed);
}
BENCHMARK(BM_SynFloodDetection)
    ->Arg(500)
    ->Arg(2000)
    ->Arg(10000)
    ->ArgName("flood_syns_per_s")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Control: benign-only traffic must not alert at any benign rate.
void BM_SynFloodFalsePositives(benchmark::State& state) {
  const double benign_rate = static_cast<double>(state.range(0));
  int alerts = 0;
  for (auto _ : state) {
    auto model = scenarios::transpacific(0xF165, benign_rate, Duration::from_sec(5.0));
    SynFloodDetector detector({}, [&alerts](Alert) { ++alerts; });
    while (auto f = model.next()) {
      PacketView view;
      if (parse_packet(f->frame, view) != ParseStatus::kOk) continue;
      if (view.tcp.is_syn_only() && view.is_v4) detector.on_syn(f->timestamp, view.ip4.dst);
      if (view.tcp.ack_flag() && !view.tcp.syn() && view.is_v4) {
        detector.on_completion(f->timestamp, view.ip4.dst);
      }
    }
    detector.flush();
  }
  state.counters["false_alerts"] = alerts;
}
BENCHMARK(BM_SynFloodFalsePositives)
    ->Arg(100)
    ->Arg(1000)
    ->ArgName("benign_flows_per_s")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Raw detector cost: events/sec through on_syn (the per-packet hook).
void BM_SynFloodDetectorCost(benchmark::State& state) {
  SynFloodDetector detector;
  const Ipv4Address target(10, 1, 0, 80);
  std::int64_t t = 0;
  for (auto _ : state) {
    detector.on_syn(Timestamp::from_us(t += 3), target);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SynFloodDetectorCost);

}  // namespace

BENCHMARK_MAIN();
