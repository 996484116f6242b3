#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "capture/scenarios.hpp"
#include "e2e.hpp"

namespace ruru::e2e {

const std::vector<Workload>& workloads() {
  // Why each exists (README.md has the full table; held-out seeds 911-914):
  //  transpacific — production mix; loads driver and sinks, bypasses the
  //                 in-flow kernel.
  //  inflow       — established-heavy; the worker's timestamp kernel and
  //                 flow-table residency do most of the work.
  //  synflood     — full flow tables; insert refusal, coverage below 1.
  //  live         — far below capacity; the idle path sets cost and delay.
  static const std::vector<Workload> all = {
      {"transpacific", false, 1, 8, 1, 2, 10.0, 0.0, false, true, 11},
      {"inflow", false, 1, 8, 1, 2, 10.0, 0.0, true, true, 12},
      {"synflood", false, 1, 8, 1, 2, 10.0, 0.0, false, false, 13},
      {"live", true, 0, 1, 0, 1, 20.0, 2.0, false, false, 14},
  };
  return all;
}

Workload smoke_sized(Workload w) {
  w.warm_instances = 0;
  w.instances = 1;
  w.warm_passes = 0;
  w.timed_passes = 1;
  w.trace_s = 1.0;
  if (w.open_loop) w.warmup_s = 1.0;
  return w;
}

PipelineConfig pipeline_config(const Workload& w) {
  PipelineConfig cfg;
  // One generator thread + 2 spinning workers + 1 enricher: 4 threads on
  // a 4-core host.  Metrics, tracing, snapshots and the watchdog stay off.
  cfg.num_queues = 2;
  cfg.enrichment_threads = 1;
  cfg.inflow_rtt = w.inflow_rtt;
  return cfg;
}

World scenario_world() {
  std::vector<SiteSpec> specs;
  const auto convert = [&](const scenarios::Site& s) {
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
  auto world = build_world(specs);
  if (!world.ok()) throw std::runtime_error("failed to build world: " + world.error());
  return std::move(world).value();
}

namespace {

TrafficModel make_model(const Workload& w, std::uint64_t seed) {
  const std::string name = w.name;
  if (name == "transpacific") {
    return scenarios::transpacific(seed, 4000.0, Duration::from_sec(w.trace_s));
  }
  if (name == "inflow") {
    TrafficConfig cfg;
    cfg.seed = seed;
    cfg.flows_per_sec = 1500.0;
    cfg.duration = Duration::from_sec(w.trace_s);
    cfg.mean_data_segments = 16.0;
    cfg.with_tcp_timestamps = true;
    return TrafficModel(cfg, scenarios::transpacific_routes());
  }
  if (name == "synflood") {
    // 10 s trace: 20k SYN/s from 0.5 s for 9 s, 180k half-open entries
    // against 2 x 64k table slots (scaled the same way in smoke).
    return scenarios::syn_flood(seed, 4000.0, 20000.0, Duration::from_sec(w.trace_s),
                                Timestamp::from_sec(0.05 * w.trace_s),
                                Duration::from_sec(0.9 * w.trace_s));
  }
  if (name == "live") {
    return scenarios::transpacific(seed, 4000.0, Duration::from_sec(w.warmup_s + w.trace_s));
  }
  throw std::invalid_argument("unknown workload " + name);
}

}  // namespace

Trace make_trace(const Workload& w, std::uint64_t seed) {
  const auto t0 = std::chrono::steady_clock::now();
  TrafficModel model = make_model(w, seed);
  Trace trace;
  while (auto f = model.next()) trace.frames.push_back(std::move(*f));
  for (const FlowTruth& t : model.truth()) {
    if (t.handshake_completes) {
      trace.handshakes.emplace_back(t.syn_time.ns, t.expected_measured_total().ns);
    }
  }
  std::sort(trace.handshakes.begin(), trace.handshakes.end());
  trace.gen_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (trace.frames.empty()) throw std::runtime_error("empty trace");
  trace.pass_shift =
      Duration::from_sec(std::ceil(trace.frames.back().timestamp.to_sec()) + 31.0);
  // scenarios::syn_flood aims its flood at this Auckland server.
  if (std::string(w.name) == "synflood") trace.victim = Ipv4Address(10, 1, 0, 80).to_string();
  return trace;
}

}  // namespace ruru::e2e
