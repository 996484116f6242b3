// Threaded runs: the workload through a real RuruPipeline, driven from
// this thread as the NIC's only producer.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>

#include "e2e.hpp"
#include "obs/tsc_clock.hpp"

namespace ruru::e2e {

namespace {

constexpr std::size_t kBurst = 32;

double rss_mib() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
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

/// CPU time of every thread but this one: the pipeline's workers and
/// enricher.  The generator thread (which also plays the NIC's DMA) is
/// left out, so its busy-wait does not count as pipeline cost.
std::int64_t pipeline_cpu_ns() { return cpu_ns(RUSAGE_SELF) - cpu_ns(RUSAGE_THREAD); }

inline void cpu_relax() {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#endif
}

/// Every sample that reaches the sinks, recorded from the enrichment
/// thread into a pre-sized array through an atomic cursor — no lock, no
/// allocation on the sink path.  Registered after the pipeline's own
/// sinks, so a sample is recorded once the TSDB holds it.
class SampleRecorder {
 public:
  struct Rec {
    std::int64_t started_ns = 0;
    std::int64_t total_ns = 0;
    std::int64_t completed_ns = 0;
    std::int64_t sink_ns = 0;
  };

  SampleRecorder(std::size_t capacity, int passes, Duration pass_shift)
      : recs_(capacity), inflow_(static_cast<std::size_t>(passes)), shift_ns_(pass_shift.ns) {}

  void add(const EnrichedSample& s) {
    if (s.kind != SampleKind::kHandshake) {
      const auto k = static_cast<std::size_t>(s.completed_at.ns / shift_ns_);
      (k < inflow_.size() ? inflow_[k] : stray_inflow_).fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i < recs_.size()) {
      recs_[i] = Rec{s.started_at.ns, s.total.ns, s.completed_at.ns, obs::trace_now_ns()};
    }
  }

  /// Valid once the enrichment threads have been joined (finish()).
  [[nodiscard]] std::span<const Rec> handshakes() const {
    return {recs_.data(), std::min(next_.load(), recs_.size())};
  }
  [[nodiscard]] std::uint64_t handshakes_seen() const { return next_.load(); }
  [[nodiscard]] std::uint64_t inflow(std::size_t pass) const { return inflow_[pass].load(); }
  [[nodiscard]] std::uint64_t inflow_total() const {
    std::uint64_t n = stray_inflow_.load();
    for (const auto& c : inflow_) n += c.load();
    return n;
  }

 private:
  std::vector<Rec> recs_;
  std::atomic<std::size_t> next_{0};
  std::vector<std::atomic<std::uint64_t>> inflow_;
  std::atomic<std::uint64_t> stray_inflow_{0};
  std::int64_t shift_ns_;
};

using Pair = std::pair<std::int64_t, std::int64_t>;

/// True when the sorted multiset `got` is contained in the sorted `truth`.
bool is_sub_multiset(const std::vector<Pair>& got, const std::vector<Pair>& truth) {
  std::size_t j = 0;
  for (const Pair& p : got) {
    while (j < truth.size() && truth[j] < p) ++j;
    if (j == truth.size() || truth[j] != p) return false;
    ++j;
  }
  return true;
}

/// The dashboard read side: 1000 refreshes of a dashboard showing the
/// last 60 s, the window's end stepping evenly from the first stored
/// point to the last (its start clipped to the first), so early windows
/// hold little data and later ones up to a full minute.  A refresh runs
/// both panels, a per-destination group-by and an Auckland-sourced 1 s
/// window aggregate, and is timed as one: timing the two kinds apart
/// would put the p50 on the edge between them.  Runs the whole set
/// `sweeps` times and lowers each refresh's entry in `best_us` to its
/// fastest run.
void run_queries(const TsdbEngine& db, Timestamp first, Timestamp last, int sweeps,
                 std::vector<double>& best_us) {
  constexpr std::int64_t kRefreshes = 1000;
  const Duration window = Duration::from_sec(60.0);
  const std::int64_t span = (last - first).ns + 1;
  const TagSet any;
  TagSet auckland;
  auckland.add("src_city", "Auckland");
  best_us.resize(kRefreshes, std::numeric_limits<double>::infinity());
  std::size_t rows = 0;
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (std::int64_t i = 0; i < kRefreshes; ++i) {
      const Timestamp end = first + Duration{span * (i + 1) / kRefreshes};
      const Timestamp start_at = std::max(first, end - window);
      const auto start = std::chrono::steady_clock::now();
      rows += db.group_by("total_ms", "dst_city", any, start_at, end).size();
      rows += db.window_aggregate("total_ms", auckland, start_at, end, Duration::from_sec(1.0))
                  .size();
      const double took =
          std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
              .count();
      double& best = best_us[static_cast<std::size_t>(i)];
      best = std::min(best, took);
    }
  }
  if (rows == 0) throw std::runtime_error("dashboard queries returned no rows");
}

PipelineConfig threaded_config(const Workload& w, bool traced) {
  PipelineConfig cfg = pipeline_config(w);
  if (traced) {
    // Hot-path histograms (bus queue wait among them).  The registry's
    // snapshot thread sleeps for the whole run, and nothing is ingested
    // into the TSDB, so point counts stay comparable.
    cfg.metrics_enabled = true;
    cfg.metrics_self_ingest = false;
    cfg.metrics_interval = Duration::from_sec(3600.0);
  }
  return cfg;
}

/// Where a timed slot (a pass, or a 1 s window of the open loop) starts.
struct SlotMark {
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;   ///< pipeline_cpu_ns()
  std::uint64_t frames = 0;  ///< frames offered before the slot
};

/// When the closed-loop generator first offered the burst starting at
/// rx time `first_rx_ns`.
struct BurstMark {
  std::int64_t first_rx_ns = 0;
  std::int64_t offered_ns = 0;
};

/// Sweeps over the dashboard refreshes per run; each refresh counts with
/// its fastest.  A closed loop spreads them over its last instances, a
/// few seconds apart, so one slow stretch of a shared host cannot slow
/// every run of a refresh.
constexpr int kQuerySweeps = 2;

/// One pipeline instance's replay, before it is pooled with the run's
/// other instances.
struct Instance {
  double setup_s = 0.0;
  double rss_mib = 0.0;
  std::vector<double> slot_pps;
  std::vector<double> slot_cpu_ns;  ///< pipeline CPU per frame
  std::vector<double> slot_latency_p50_us;
  std::vector<double> slot_latency_p99_us;
  std::vector<double> latency_us;  ///< every timed handshake sample
  std::vector<double> late_us;     ///< open loop only: generator lateness per burst
  std::uint64_t offered = 0;
  std::uint64_t lost = 0;
  std::uint64_t retried = 0;
  std::int64_t inject_ns = 0;  ///< traced only
  std::uint64_t matched = 0;   ///< handshake samples of passes that matched the truth
  std::uint64_t truth = 0;     ///< truth handshakes over all passes
  std::uint64_t bus_published = 0;
  std::uint64_t bus_lost = 0;  ///< HWM drops + decode failures
  std::uint64_t alerts = 0;
  std::vector<PassCounts> passes;
  std::vector<double> query_us;  ///< fastest run per dashboard refresh; empty if none ran
};

}  // namespace

double setup_once(const Workload& w) {
  const auto t0 = std::chrono::steady_clock::now();
  double seconds = 0.0;
  {
    const World world = scenario_world();
    RuruPipeline pipeline(pipeline_config(w), world.geo, world.as);
    pipeline.start();
    seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    pipeline.finish();
  }
  malloc_trim(0);  // the next set-up starts from the same heap state
  return seconds;
}

namespace {

Instance run_instance(const Workload& w, const Trace& trace, bool traced, int query_sweeps,
                      const std::string& tag, ThreadedResult& r, Report& report) {
  const std::vector<TimedFrame>& frames = trace.frames;
  const std::size_t n = frames.size();
  const int passes = w.warm_passes + w.timed_passes;
  const Duration shift = trace.pass_shift;

  SampleRecorder recorder(trace.handshakes.size() * static_cast<std::size_t>(passes), passes,
                          shift);
  Instance in;
  std::vector<BurstMark> marks;
  if (w.open_loop) {
    in.late_us.reserve(n);
  } else {
    marks.reserve(static_cast<std::size_t>(passes) * (n / kBurst + 1));
  }
  const double rss_before = rss_mib();

  // --- set-up: world + pipeline construction + start ---
  const auto setup_start = std::chrono::steady_clock::now();
  auto world = std::make_unique<World>(scenario_world());
  auto pipeline = std::make_unique<RuruPipeline>(threaded_config(w, traced), world->geo, world->as);
  pipeline->add_enriched_sink([&recorder](const EnrichedSample& s) { recorder.add(s); });
  pipeline->start();
  in.setup_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - setup_start).count();

  std::array<RxFrame, kBurst> burst;
  std::array<bool, kBurst> queued{};
  std::uint64_t offered = 0;
  std::uint64_t timed_frames = 0;
  std::int64_t wall0_ns = 0;  // open loop: wall time of trace time 0
  // Timed slots (a pass, or a 1 s window of the open loop) start at
  // these marks; the last mark is taken once finish() returns.
  std::vector<SlotMark> slot_marks;
  const auto mark = [&](std::uint64_t frames_before) {
    slot_marks.push_back({obs::trace_now_ns(), pipeline_cpu_ns(), frames_before});
  };

  if (!w.open_loop) {
    for (int pass = 0; pass < passes; ++pass) {
      const Duration pass_shift = shift * pass;
      if (pass >= w.warm_passes) mark(offered);
      for (std::size_t off = 0; off < n; off += kBurst) {
        const std::size_t m = std::min(kBurst, n - off);
        for (std::size_t i = 0; i < m; ++i) {
          burst[i] = RxFrame{frames[off + i].frame, frames[off + i].timestamp + pass_shift};
        }
        const std::int64_t offered_ns = obs::trace_now_ns();
        marks.push_back({burst[0].rx_time.ns, offered_ns});
        pipeline->inject_burst({burst.data(), m}, queued.data());
        if (traced) in.inject_ns += obs::trace_now_ns() - offered_ns;
        for (std::size_t i = 0; i < m; ++i) {
          if (queued[i]) continue;
          // Retry on the frame's own queue: inject_shard feeds the same
          // ring without feeding the link meter a second time.
          ++in.retried;
          const std::uint16_t q = pipeline->queue_for(burst[i].data);
          const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (pipeline->inject_shard(q, {&burst[i], 1}) == 0 &&
                 std::chrono::steady_clock::now() < give_up) {
            std::this_thread::yield();
          }
        }
      }
      offered += n;
    }
    timed_frames = n * static_cast<std::uint64_t>(w.timed_passes);
  } else {
    // Open loop at real time: busy-wait until a frame is due, inject every
    // due frame (at most a burst) in one call, never retry.
    const std::int64_t warmup_ns = Duration::from_sec(w.warmup_s).ns;
    const std::int64_t window_ns = Duration::from_sec(1.0).ns;
    std::int64_t next_window_ns = warmup_ns;
    wall0_ns = obs::trace_now_ns() + 10'000'000;
    std::size_t i = 0;
    while (i < n) {
      const std::int64_t due = wall0_ns + frames[i].timestamp.ns;
      std::int64_t now = obs::trace_now_ns();
      while (now < due) {
        cpu_relax();
        now = obs::trace_now_ns();
      }
      std::size_t j = i + 1;
      while (j < n && j - i < kBurst && wall0_ns + frames[j].timestamp.ns <= now) ++j;
      if (frames[i].timestamp.ns >= next_window_ns) {
        if (slot_marks.empty()) timed_frames = n - i;
        mark(i);
        while (next_window_ns <= frames[i].timestamp.ns) next_window_ns += window_ns;
      }
      if (!slot_marks.empty()) in.late_us.push_back(static_cast<double>(now - due) / 1e3);
      const std::size_t m = j - i;
      for (std::size_t k = 0; k < m; ++k) {
        burst[k] = RxFrame{frames[i + k].frame, frames[i + k].timestamp};
      }
      const std::int64_t before = obs::trace_now_ns();
      pipeline->inject_burst({burst.data(), m}, queued.data());
      if (traced) in.inject_ns += obs::trace_now_ns() - before;
      i = j;
    }
    offered = n;
  }
  pipeline->finish();
  mark(offered);
  const double rss_after = rss_mib();

  const PipelineSummary sum = pipeline->summary();
  TsdbEngine& tsdb = pipeline->tsdb();

  // --- per-slot rates; pooled over the run's instances later ---
  if (timed_frames == 0 || slot_marks.size() < 2) throw std::runtime_error("nothing timed");
  for (std::size_t k = 0; k + 1 < slot_marks.size(); ++k) {
    const SlotMark& a = slot_marks[k];
    const SlotMark& b = slot_marks[k + 1];
    if (b.frames == a.frames || b.wall_ns <= a.wall_ns) continue;
    const auto frames_in = static_cast<double>(b.frames - a.frames);
    in.slot_pps.push_back(frames_in / (static_cast<double>(b.wall_ns - a.wall_ns) / 1e9));
    in.slot_cpu_ns.push_back(static_cast<double>(b.cpu_ns - a.cpu_ns) / frames_in);
  }
  in.rss_mib = rss_after - rss_before;
  in.offered = offered;
  in.lost = offered - std::min<std::uint64_t>(offered, sum.nic.rx_packets);
  in.bus_published = sum.bus_published;
  in.bus_lost = sum.bus_dropped + sum.decode_failures;
  in.alerts = sum.alerts;

  // Sample latency: from when the completing packet was due (open loop)
  // or first offered (closed loop) until the sample reached the sinks.
  // Percentiles are taken per slot — a timed pass, or a 1 s window of the
  // open loop — so a second of co-scheduled threads does not decide the
  // run's number.
  const std::int64_t timed_from_ns =
      w.open_loop ? Duration::from_sec(w.warmup_s).ns : (shift * w.warm_passes).ns;
  const std::int64_t slot_ns = w.open_loop ? Duration::from_sec(1.0).ns : shift.ns;
  std::vector<std::vector<double>> slots;
  in.latency_us.reserve(recorder.handshakes().size());
  for (const SampleRecorder::Rec& s : recorder.handshakes()) {
    if (s.completed_ns < timed_from_ns) continue;
    std::int64_t due = 0;
    if (w.open_loop) {
      due = wall0_ns + s.completed_ns;
    } else {
      const auto it =
          std::upper_bound(marks.begin(), marks.end(), s.completed_ns,
                           [](std::int64_t t, const BurstMark& m) { return t < m.first_rx_ns; });
      if (it == marks.begin()) continue;
      due = std::prev(it)->offered_ns;
    }
    const auto slot = static_cast<std::size_t>((s.completed_ns - timed_from_ns) / slot_ns);
    if (slot >= slots.size()) slots.resize(slot + 1);
    slots[slot].push_back(static_cast<double>(s.sink_ns - due) / 1e3);
    in.latency_us.push_back(slots[slot].back());
  }
  for (std::vector<double>& slot : slots) {
    // A slot needs at least ten samples beyond its p99.
    if (slot.size() < 1000) continue;
    in.slot_latency_p50_us.push_back(percentile(slot, 0.50));
    in.slot_latency_p99_us.push_back(percentile(slot, 0.99));
  }

  // --- gate 1: handshake samples against ground truth, per pass ---
  std::vector<std::vector<Pair>> got(static_cast<std::size_t>(passes));
  std::uint64_t stray = 0;
  for (const SampleRecorder::Rec& s : recorder.handshakes()) {
    const std::int64_t k = s.started_ns / shift.ns;
    if (k < 0 || k >= passes) {
      ++stray;
      continue;
    }
    got[static_cast<std::size_t>(k)].emplace_back(s.started_ns - (shift * k).ns, s.total_ns);
  }
  report.check(stray == 0 && recorder.handshakes_seen() == recorder.handshakes().size(),
               tag + "samples outside any pass or beyond the truth's count");
  for (int k = 0; k < passes; ++k) {
    std::vector<Pair>& g = got[static_cast<std::size_t>(k)];
    std::sort(g.begin(), g.end());
    const bool ok = w.exact_coverage ? g == trace.handshakes : is_sub_multiset(g, trace.handshakes);
    report.check(ok, tag + "pass " + std::to_string(k) + ": " + std::to_string(g.size()) +
                         " handshake samples do not match the " +
                         std::to_string(trace.handshakes.size()) + " truth handshakes " +
                         (w.exact_coverage ? "exactly" : "as a subset"));
    if (ok) in.matched += g.size();
  }
  in.truth = trace.handshakes.size() * static_cast<std::uint64_t>(passes);

  // --- gate 2: TSDB points = 3 per handshake + 1 per in-flow sample +
  //     2 per link-meter window; the read side sees every handshake ---
  const std::uint64_t hs = recorder.handshakes_seen();
  const std::uint64_t inflow = recorder.inflow_total();
  const std::uint64_t link_points = 2 * pipeline->link_meter().closed().size();
  report.check(tsdb.points_written() == 3 * hs + inflow + link_points,
               tag + "tsdb points " + std::to_string(tsdb.points_written()) + " != 3 x " +
                   std::to_string(hs) + " + " + std::to_string(inflow) + " + " +
                   std::to_string(link_points));
  const Timestamp first = frames.front().timestamp;
  const Timestamp last = frames.back().timestamp + shift * (passes - 1);
  std::uint64_t stored = 0;
  for (const GroupResult& g : tsdb.group_by("total_ms", "dst_city", TagSet{}, first,
                                            last + Duration::from_ns(1))) {
    stored += g.stats.count;
  }
  report.check(stored == hs, tag + "group_by over the run sees " + std::to_string(stored) +
                                 " handshakes, sinks saw " + std::to_string(hs));

  // --- gate 3: bus conservation ---
  report.check(sum.bus_published == sum.enriched + sum.bus_dropped,
               tag + "bus published " + std::to_string(sum.bus_published) + " != enriched " +
                   std::to_string(sum.enriched) + " + dropped " + std::to_string(sum.bus_dropped));
  report.check(sum.enriched == hs + inflow, tag + "enriched " + std::to_string(sum.enriched) +
                                                " != samples at the sinks " +
                                                std::to_string(hs + inflow));

  // --- gate 4: the flood is named ---
  if (!trace.victim.empty()) {
    const std::vector<Alert> alerts = pipeline->alerts().snapshot();
    const bool named = std::any_of(alerts.begin(), alerts.end(), [&](const Alert& a) {
      return a.kind == "syn-flood" && a.subject == trace.victim;
    });
    report.check(named, tag + "no syn-flood alert names " + trace.victim);
  }

  // Per-pass counts, for comparison with the other replays.
  const std::uint64_t series = tsdb.series_count();
  for (int k = 0; k < passes; ++k) {
    PassCounts c;
    c.handshakes = got[static_cast<std::size_t>(k)].size();
    c.inflow = recorder.inflow(static_cast<std::size_t>(k));
    c.tsdb_points = 3 * c.handshakes + c.inflow;
    c.series = series;
    in.passes.push_back(c);
  }

  if (traced) {
    const double injected = static_cast<double>(offered);
    r.inject_ns_per_frame = static_cast<double>(in.inject_ns) / injected;
    r.retry_frac = static_cast<double>(in.retried) / injected;
    r.empty_poll_frac = ratio(sum.workers.empty_polls, sum.workers.polls);
    r.samples_per_message = ratio(sum.workers.batched_samples, sum.workers.batch_flushes);
    const EnricherStats es = pipeline->enrichment().combined_stats();
    r.cache_hit_rate = ratio(es.cache_hits, es.cache_hits + es.cache_misses);
    const obs::MetricsSnapshot snap = pipeline->metrics().snapshot(Timestamp{});
    if (const obs::HistogramStats* h = snap.histogram("bus.queue_wait_ns")) {
      r.queue_wait_p50_us = static_cast<double>(h->percentile(0.50)) / 1e3;
      r.queue_wait_p99_us = static_cast<double>(h->percentile(0.99)) / 1e3;
    }
  }
  if (query_sweeps > 0) run_queries(tsdb, first, last, query_sweeps, in.query_us);

  pipeline.reset();
  world.reset();
  malloc_trim(0);
  return in;
}

}  // namespace

ThreadedResult run_threaded(const Workload& w, const Trace& trace, bool traced, Report& report) {
  ThreadedResult r;
  // Each instance is a fresh pipeline with fresh threads.  How fast one
  // runs depends on where its threads land, so a run pools the timed
  // slots of several and reports medians.  The first instances of a
  // process run slow for a second or so; warm-up instances take that and
  // are gated like the others, but their slots are not pooled.
  const int warm = traced ? 0 : w.warm_instances;
  const int instances = warm + (traced ? 1 : w.instances);
  std::vector<double> pps;
  std::vector<double> cpu_ns;
  std::vector<double> latency_p50;
  std::vector<double> latency_p99;
  std::vector<double> latency_all;
  std::vector<double> late;
  std::vector<double> rss;
  std::vector<double> query_us;
  std::uint64_t matched = 0;
  std::uint64_t truth = 0;
  std::uint64_t bus_published = 0;
  std::uint64_t bus_lost = 0;
  for (int k = 0; k < instances; ++k) {
    std::string tag = traced ? "traced run" : "run";
    if (instances > 1) tag += " " + std::to_string(k);
    // The dashboard refreshes read the last instances' TSDBs, one sweep
    // each; a run with fewer instances sweeps its last one repeatedly.
    int sweeps = 0;
    if (!traced && k >= instances - kQuerySweeps) {
      sweeps = k + 1 == instances ? kQuerySweeps - std::min(kQuerySweeps, instances) + 1 : 1;
    }
    Instance in = run_instance(w, trace, traced, sweeps, tag + ": ", r, report);
    r.setups.push_back(in.setup_s);
    if (k >= warm) {
      const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
        to.insert(to.end(), from.begin(), from.end());
      };
      append(pps, in.slot_pps);
      append(cpu_ns, in.slot_cpu_ns);
      append(latency_p50, in.slot_latency_p50_us);
      append(latency_p99, in.slot_latency_p99_us);
      append(latency_all, in.latency_us);
      append(late, in.late_us);
      rss.push_back(in.rss_mib);
    }
    r.frames_offered += in.offered;
    r.frames_lost += in.lost;
    matched += in.matched;
    truth += in.truth;
    bus_published += in.bus_published;
    bus_lost += in.bus_lost;
    r.alerts += static_cast<double>(in.alerts);
    r.passes.insert(r.passes.end(), in.passes.begin(), in.passes.end());
    for (std::size_t i = 0; i < in.query_us.size(); ++i) {
      if (i == query_us.size()) query_us.push_back(in.query_us[i]);
      query_us[i] = std::min(query_us[i], in.query_us[i]);
    }
  }
  if (!traced) {
    r.query_p50_us = percentile(query_us, 0.50);
    r.query_p99_us = percentile(query_us, 0.99);
  }
  r.pps = percentile(pps, 0.5);
  r.cpu_ns_per_frame = percentile(cpu_ns, 0.5);
  r.latency_samples = latency_all.size();
  r.latency_slots = latency_p99.size();
  r.latency_p50_us = percentile(latency_p50, 0.5);
  r.latency_p99_us = percentile(latency_p99, 0.5);
  r.latency_p99_all_us = percentile(latency_all, 0.99);
  if (!late.empty()) r.late_p99_us = percentile(late, 0.99);
  r.pipeline_rss_mib = percentile(rss, 0.5);
  r.coverage = ratio(static_cast<double>(matched), static_cast<double>(truth));
  r.frame_loss_frac =
      ratio(static_cast<double>(r.frames_lost), static_cast<double>(r.frames_offered));
  r.sample_loss_frac = ratio(static_cast<double>(bus_lost), static_cast<double>(bus_published));
  r.counts_valid = r.frames_lost == 0;
  return r;
}

}  // namespace ruru::e2e
