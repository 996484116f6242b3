// ruru_e2e — one workload, one process.  Run through bench/e2e/run.sh,
// which builds this in Release and passes the build's identity along:
//
//   ruru_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--smoke] [--out-dir DIR] [--commit SHA]
//
// Prints every metric as a `name value unit` line, writes a results
// JSON into --out-dir, and ends stdout with one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Exit status 0 only when every correctness gate passed.

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "e2e.hpp"
#include "util/logging.hpp"

#ifndef RURU_E2E_BUILD_TYPE
#define RURU_E2E_BUILD_TYPE "unknown"
#endif

namespace ruru::e2e {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 0.0;  ///< open loop: timed seconds (0 = the workload's default)
  bool traced = false;
  bool smoke = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
      o.seed_given = true;
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
      if (!(o.seconds > 0.0 && o.seconds <= 60.0)) {
        throw std::invalid_argument("--seconds must be in (0, 60]");
      }
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.traced = v == "1";
    } else if (arg == "--traced") {
      o.traced = true;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--out-dir") {
      o.out_dir = value();
    } else if (arg == "--commit") {
      o.commit = value();
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string loadavg() {
  std::ifstream in("/proc/loadavg");
  double a = 0, b = 0, c = 0;
  in >> a >> b >> c;
  return "[" + json_number(a) + ", " + json_number(b) + ", " + json_number(c) + "]";
}

void print_lines(const char* section, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", section);
  for (const Metric& m : metrics) {
    std::printf("%s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int run(int argc, char** argv) {
  const Options o = parse(argc, argv);
#ifndef NDEBUG
  std::fprintf(stderr, "ruru_e2e: refusing to measure a build with assertions on\n");
  return 2;
#endif
  if (std::strcmp(RURU_E2E_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "ruru_e2e: refusing to measure a %s build (Release only)\n",
                 RURU_E2E_BUILD_TYPE);
    return 2;
  }
  Logger::instance().set_level(LogLevel::kWarn);

  const Workload* found = nullptr;
  for (const Workload& w : workloads()) {
    if (o.workload == w.name) found = &w;
  }
  if (found == nullptr) throw std::invalid_argument("unknown workload " + o.workload);
  Workload w = *found;
  if (o.smoke) {
    w = smoke_sized(w);
  } else if (w.open_loop && o.seconds > 0.0) {
    w.trace_s = o.seconds;
  }
  const std::uint64_t seed = o.seed_given ? o.seed : w.default_seed;

  const Trace trace = make_trace(w, seed);
  Report report;
  const ThreadedResult base = run_threaded(w, trace, false, report);
  // Set-up is short and noisy: report the median of several fresh ones.
  std::vector<double> setups = base.setups;
  while (setups.size() < 9) setups.push_back(setup_once(w));
  report.attempted = base.frames_offered;
  report.failed = base.frames_lost;

  report.end_to_end = {
      {"setup_s", percentile(setups, 0.5), "s"},
      {"pps", base.pps, "1/s"},
      {"cpu_ns_per_frame", base.cpu_ns_per_frame, "ns"},
      {"coverage", base.coverage, "ratio"},
      {"sample_latency_p50_us", base.latency_p50_us, "us"},
      {"query_p50_us", base.query_p50_us, "us"},
      {"query_p99_us", base.query_p99_us, "us"},
      {"pipeline_rss_mb", base.pipeline_rss_mib, "MiB"},
  };
  report.unbounded = {
      {"sample_latency_p99_us", base.latency_p99_us, "us"},
      {"sample_latency_p99_all_us", base.latency_p99_all_us, "us"},
      {"frame_loss_frac", base.frame_loss_frac, "ratio"},
      {"sample_loss_frac", base.sample_loss_frac, "ratio"},
  };
  report.info = {
      {"sample_latency_samples", static_cast<double>(base.latency_samples), "count"},
      {"sample_latency_slots", static_cast<double>(base.latency_slots), "count"},
      {"alerts", base.alerts, "count"},
      {"loadgen.gen_s", trace.gen_s, "s"},
      {"frames_per_pass", static_cast<double>(trace.frames.size()), "count"},
      {"handshakes_per_pass", static_cast<double>(trace.handshakes.size()), "count"},
      {"instances", static_cast<double>(w.warm_instances + w.instances), "count"},
      {"passes_per_instance", static_cast<double>(w.warm_passes + w.timed_passes), "count"},
  };
  if (w.open_loop) report.info.push_back({"loadgen.late_p99_us", base.late_p99_us, "us"});

  if (o.traced) {
    const std::string trace_json =
        o.out_dir + "/trace-" + w.name + "-s" + std::to_string(seed) + ".json";
    const StagedResult st = run_staged(w, trace, trace_json, report);
    const ThreadedResult tr = run_threaded(w, trace, true, report);
    const auto describe = [](const PassCounts& c) {
      return "(handshakes " + std::to_string(c.handshakes) + ", in-flow " +
             std::to_string(c.inflow) + ", points " + std::to_string(c.tsdb_points) +
             ", series " + std::to_string(c.series) + ")";
    };
    for (const ThreadedResult* threaded : {&base, &tr}) {
      const char* which = threaded == &base ? "run" : "traced run";
      if (!threaded->counts_valid) {
        // An open loop may drop frames; its passes are then not a replay
        // of the staged pass.
        std::fprintf(stderr, "ruru_e2e: %s lost frames, per-pass counts not compared\n", which);
        continue;
      }
      for (std::size_t k = 0; k < threaded->passes.size(); ++k) {
        const PassCounts& c = threaded->passes[k];
        report.check(c == st.counts, std::string(which) + " pass " + std::to_string(k) + " " +
                                         describe(c) + " differs from the staged replay's " +
                                         describe(st.counts));
      }
    }
    const double slowest = std::max(
        {st.producer_ns_per_frame, st.worker_max_ns_per_frame, st.enricher_ns_per_frame});
    const double predicted_pps = slowest > 0.0 ? 1e9 / slowest : 0.0;
    const std::vector<Metric> threaded_layers = {
        {"driver.inject_ns_per_frame.pipeline", tr.inject_ns_per_frame, "ns"},
        {"driver.retry_frac", tr.retry_frac, "ratio"},
        {"flow.empty_poll_frac", tr.empty_poll_frac, "ratio"},
        {"msg.samples_per_message", tr.samples_per_message, "count"},
        {"msg.queue_wait_p50_us", tr.queue_wait_p50_us, "us"},
        {"msg.queue_wait_p99_us", tr.queue_wait_p99_us, "us"},
        {"analytics.cache_hit_rate", tr.cache_hit_rate, "ratio"},
        {"ledger.producer_ns_per_frame", st.producer_ns_per_frame, "ns"},
        {"ledger.worker_max_ns_per_frame", st.worker_max_ns_per_frame, "ns"},
        {"ledger.enricher_ns_per_frame", st.enricher_ns_per_frame, "ns"},
        {"ledger.predicted_pps", predicted_pps, "1/s"},
        {"ledger.explained_frac", ratio(base.pps, predicted_pps), "ratio"},
        {"ledger.trace_overhead_frac", 1.0 - ratio(tr.pps, base.pps), "ratio"},
        {"loadgen.gen_s", trace.gen_s, "s"},
    };
    report.per_layer.insert(report.per_layer.end(), threaded_layers.begin(),
                            threaded_layers.end());
  }

  for (const auto* list : {&report.end_to_end, &report.per_layer}) {
    for (const Metric& m : *list) {
      report.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
    }
  }
  const bool correct = report.failures.empty();

  std::printf("# workload %s seed %llu%s%s\n", w.name, static_cast<unsigned long long>(seed),
              o.smoke ? " smoke" : "", o.traced ? " traced" : "");
  print_lines("end-to-end", report.end_to_end);
  print_lines("end-to-end, not bounded", report.unbounded);
  if (o.traced) print_lines("per-layer", report.per_layer);
  print_lines("info", report.info);
  for (const std::string& f : report.failures) std::printf("# CHECK FAILED: %s\n", f.c_str());
  std::printf("# checks %s\n", correct ? "passed" : "FAILED");

  std::ostringstream results;
  results << "{\n  \"workload\": " << json_string(w.name) << ",\n  \"seed\": " << seed
          << ",\n  \"smoke\": " << (o.smoke ? "true" : "false")
          << ",\n  \"traced\": " << (o.traced ? "true" : "false")
          << ",\n  \"commit\": " << json_string(o.commit)
          << ",\n  \"compiler\": " << json_string(compiler())
          << ",\n  \"build_type\": " << json_string(RURU_E2E_BUILD_TYPE)
          << ",\n  \"nproc\": " << std::thread::hardware_concurrency()
          << ",\n  \"loadavg\": " << loadavg()
          << ",\n  \"correct\": " << (correct ? "true" : "false")
          << ",\n  \"attempted\": " << report.attempted << ",\n  \"failed\": " << report.failed
          << ",\n  \"end_to_end\": " << json_metrics(report.end_to_end)
          << ",\n  \"end_to_end_unbounded\": " << json_metrics(report.unbounded)
          << ",\n  \"per_layer\": " << json_metrics(report.per_layer)
          << ",\n  \"info\": " << json_metrics(report.info) << ",\n  \"failures\": [";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    results << (i != 0 ? ", " : "") << json_string(report.failures[i]);
  }
  results << "]\n}\n";
  const std::string results_path =
      o.out_dir + "/e2e-" + w.name + "-s" + std::to_string(seed) + (o.smoke ? "-smoke" : "") +
      (o.traced ? "-traced" : "") + "-" + std::to_string(getpid()) + ".json";
  std::ofstream(results_path) << results.str();
  std::printf("# results %s\n", results_path.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              json_metrics(o.traced ? report.per_layer : report.end_to_end).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ruru::e2e

int main(int argc, char** argv) {
  try {
    return ruru::e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ruru_e2e: %s\n", e.what());
    return 2;
  }
}
