#pragma once
// End-to-end benchmark of the Figure-2 pipeline (NIC -> per-queue workers
// -> bus -> enrichment -> TSDB / aggregators / detectors): workloads,
// seeded traces, and the report every run fills in.
//
// The program under test only ever sees frames.  Traces are generated
// from --seed before anything is timed, and ground truth stays on the
// benchmark's side for the correctness gates.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "capture/traffic_model.hpp"
#include "core/pipeline.hpp"
#include "geo/world.hpp"

namespace ruru::e2e {

/// How one workload is generated and driven.
struct Workload {
  const char* name;
  /// Open loop: inject each frame when the trace says it is due, never
  /// retry.  Closed loop: inject as fast as possible, retry when full.
  bool open_loop;
  /// Fresh pipelines per run, one after the other (closed loop; the
  /// open loop runs one).  Each replays warm + timed passes.  Warm-up
  /// instances come first and are gated but not measured.
  int warm_instances;
  int instances;
  int warm_passes;   ///< untimed passes before the timed ones, per instance
  int timed_passes;  ///< per instance; fixed, never derived from elapsed time
  double trace_s;    ///< trace length of one pass (open loop: timed part)
  double warmup_s;   ///< open loop only: untimed head of the trace
  bool inflow_rtt;
  /// Every completed handshake must become exactly one sample.  Off
  /// where the pipeline may legitimately miss some (a full flow table,
  /// NIC drops under an open loop): every sample must still match.
  bool exact_coverage;
  std::uint64_t default_seed;
};

/// The four workloads, in the order `--workload all` runs them.
[[nodiscard]] const std::vector<Workload>& workloads();

/// Smoke mode: one pass of a 1 s trace (open loop: 1 s warm-up + 1 s).
[[nodiscard]] Workload smoke_sized(Workload w);

/// The pipeline under test: defaults except 2 queues, 1 enricher.
[[nodiscard]] PipelineConfig pipeline_config(const Workload& w);

/// Geo/AS world matching the scenario site plan (part of set-up time).
[[nodiscard]] World scenario_world();

struct Trace {
  std::vector<TimedFrame> frames;  ///< one pass, tap order
  /// Ground truth of every flow whose handshake completes:
  /// (first-SYN time, expected measured total), sorted.
  std::vector<std::pair<std::int64_t, std::int64_t>> handshakes;
  /// Replays of pass k add k * pass_shift to every rx time: more than
  /// flow_stale_after past the end of the previous pass, so no live
  /// flow state carries over.
  Duration pass_shift;
  double gen_s = 0.0;  ///< wall time spent generating
  std::string victim;  ///< syn-flood target ("" when none)
};

[[nodiscard]] Trace make_trace(const Workload& w, std::uint64_t seed);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one process measures and checks.
struct Report {
  std::vector<Metric> end_to_end;  ///< untraced run; each has a regression bound
  std::vector<Metric> unbounded;   ///< untraced run; too noisy here to bound
  std::vector<Metric> per_layer;   ///< traced runs (--traced only)
  std::vector<Metric> info;        ///< printed, never compared
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;  ///< frames offered
  std::uint64_t failed = 0;     ///< frames the pipeline never received

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Per-pass outputs of one replay, compared across the untraced run, the
/// threaded traced run and the staged replay.
struct PassCounts {
  std::uint64_t handshakes = 0;
  std::uint64_t inflow = 0;       ///< in-flow + one-sided samples
  std::uint64_t tsdb_points = 0;  ///< sample points (link-meter points excluded)
  std::uint64_t series = 0;       ///< series after the run, link series included

  friend bool operator==(const PassCounts&, const PassCounts&) = default;
};

/// What a threaded (real RuruPipeline) run measured.
/// Rates and latencies are medians over the timed slots of every
/// instance; counts are sums over the instances.
struct ThreadedResult {
  std::vector<double> setups;  ///< each instance's own set-up, seconds
  double pps = 0.0;
  double cpu_ns_per_frame = 0.0;
  double coverage = 0.0;
  double frame_loss_frac = 0.0;
  double sample_loss_frac = 0.0;
  double latency_p50_us = 0.0;  ///< median over slots of each slot's p50
  double latency_p99_us = 0.0;  ///< median over slots of each slot's p99
  double latency_p99_all_us = 0.0;  ///< p99 over every timed sample
  std::uint64_t latency_samples = 0;
  std::uint64_t latency_slots = 0;
  double query_p50_us = 0.0;  ///< untraced runs only, over the last instances' TSDBs
  double query_p99_us = 0.0;
  double pipeline_rss_mib = 0.0;  ///< median over instances
  double alerts = 0.0;
  double late_p99_us = 0.0;  ///< open loop only
  std::uint64_t frames_offered = 0;
  std::uint64_t frames_lost = 0;
  std::vector<PassCounts> passes;  ///< every pass of every instance
  bool counts_valid = false;  ///< no frame was lost, so passes are comparable
  // Traced runs only.
  double inject_ns_per_frame = 0.0;
  double retry_frac = 0.0;
  double empty_poll_frac = 0.0;
  double samples_per_message = 0.0;
  double cache_hit_rate = 0.0;
  double queue_wait_p50_us = 0.0;
  double queue_wait_p99_us = 0.0;
};

/// Runs the workload through real RuruPipelines (`instances` of them,
/// one when traced) and applies every correctness gate to each (failures
/// land in `report`).  Traced: the metrics registry is on and
/// inject_burst is timed from outside.
ThreadedResult run_threaded(const Workload& w, const Trace& trace, bool traced, Report& report);

/// One set-up (world + pipeline construction + start), in seconds; the
/// pipeline is then finished and destroyed.
[[nodiscard]] double setup_once(const Workload& w);

/// Stage costs of the single-threaded staged replay.
struct StagedResult {
  PassCounts counts;  ///< the measured pass
  double producer_ns_per_frame = 0.0;
  double worker_max_ns_per_frame = 0.0;
  double enricher_ns_per_frame = 0.0;
};

/// One warm and one measured pass through standalone stage objects on
/// one thread, with a span around every call into a module.  Writes the
/// spans as Chrome-trace JSON to `trace_json`.
StagedResult run_staged(const Workload& w, const Trace& trace, const std::string& trace_json,
                        Report& report);

/// Nearest-rank percentile (q in [0, 1]); sorts `v`.
inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace ruru::e2e
