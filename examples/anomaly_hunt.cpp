// The §3 use case: find the nightly firewall update that adds +4000 ms
// to every connection opened in a short window — invisible to SNMP-scale
// averages, obvious to Ruru.
//
// Simulates three (time-compressed) days of traffic with the glitch,
// runs the pipeline with the periodic detector enabled, and prints:
//   * what a 5-minute SNMP-style average would have shown (nothing)
//   * what Ruru's per-flow TSDB shows per 10 s window
//   * the alerts raised
//
// Run: ./anomaly_hunt

#include <cstdio>

#include "core/pipeline.hpp"
#include "core/replay.hpp"
#include "example_util.hpp"
#include "viz/heatmap.hpp"

int main() {
  using namespace ruru;

  const World world = examples::scenario_world();

  // One "day" is compressed to 120 s; the firewall window is 5 s long
  // and adds 4000 ms to the external path.
  const Duration day = Duration::from_sec(120.0);
  const Duration window = Duration::from_sec(5.0);
  const Duration total = Duration::from_sec(360.0);  // 3 days

  PipelineConfig config;
  config.num_queues = 4;
  config.enable_periodic = true;
  config.periodic.period = day;
  config.periodic.bucket = Duration::from_sec(2.0);
  config.periodic.min_periods = 2;
  config.periodic.min_samples = 8;
  RuruPipeline pipeline(config, world.geo, world.as);
  pipeline.start();

  auto model = scenarios::firewall_glitch(/*seed=*/7, /*flows_per_sec=*/80.0, total, day, window);
  // Heatmap fed live off the bus, the way a dashboard module would run.
  auto heat_sub = pipeline.subscribe("ruru.latency", /*hwm=*/1 << 20);
  replay_scenario(pipeline, model);
  pipeline.finish();

  auto heatmap = LatencyHeatmap::with_default_bands(Duration::from_sec(10.0));
  std::vector<LatencySample> decoded;
  while (auto m = heat_sub->try_recv()) {
    if (m->frames.size() < 2) continue;
    decoded.clear();
    if (!decode_latency_payload(m->frames[1], decoded)) continue;
    for (const auto& s : decoded) heatmap.add(s.syn_time, s.total());
  }

  // --- what a coarse poll would have seen ---
  std::printf("== SNMP-style view (whole-run average) ==\n");
  const auto coarse = pipeline.tsdb().aggregate("total_ms", TagSet{}, Timestamp{},
                                                Timestamp{} + total);
  std::printf("   mean latency over %0.fs: %.1f ms  <- a bland average: no when, no\n"
              "   why, no affected-flow count. (On the real link the window was 30 s\n"
              "   of a whole day, so even the shift itself vanished.)\n\n",
              total.to_sec(), coarse.mean);

  // --- Ruru's fine-grained view ---
  std::printf("== Ruru windowed view (10 s windows, total_ms max) ==\n");
  const auto windows = pipeline.tsdb().window_aggregate("total_ms", TagSet{}, Timestamp{},
                                                        Timestamp{} + total,
                                                        Duration::from_sec(10.0));
  for (const auto& w : windows) {
    const int bars = static_cast<int>(w.stats.max / 150.0);
    std::printf("   t=%5.0fs  n=%4llu  median=%7.1fms  max=%8.1fms %s%s\n",
                w.window_start.to_sec(), static_cast<unsigned long long>(w.stats.count),
                w.stats.median, w.stats.max, std::string(static_cast<std::size_t>(std::min(bars, 40)), '#').c_str(),
                w.stats.max > 4000 ? "  <-- GLITCH" : "");
  }

  // --- latency heatmap: the glitch band lights up ---
  std::printf("\n== Latency heatmap (rows = latency bands, cols = 10 s buckets) ==\n");
  std::fputs(heatmap.render_ascii(Timestamp{}, Timestamp{} + total).c_str(), stdout);

  // --- alerts ---
  std::printf("\n== Alerts ==\n");
  for (const auto& a : pipeline.alerts().snapshot()) {
    std::printf("   [%s] %s score=%.1f %s\n", a.kind.c_str(), a.subject.c_str(), a.score,
                a.detail.c_str());
  }

  // --- the periodic detector's diagnosis ---
  if (const auto* det = pipeline.periodic_detector()) {
    std::printf("\n== Periodic diagnosis ==\n");
    for (const auto& f : det->findings()) {
      std::printf(
          "   recurring window %.0fs into each %.0fs 'day': median %s vs baseline %s "
          "(%d days, %llu flows)\n",
          f.offset_in_period.to_sec(), day.to_sec(), to_string(f.bucket_median).c_str(),
          to_string(f.baseline_median).c_str(), f.periods_seen,
          static_cast<unsigned long long>(f.samples));
    }
  }
  return 0;
}
