// Vectorized worker pipeline (DESIGN.md §5l acceptance) — the staged
// lane loop against the retired per-packet loop it replaced, on the
// workloads the redesign targets:
//
//   EstablishedHeavy — the acceptance mix: a resident set of established
//       flows exchanging timestamped request/response segments (candidate
//       lanes resolved by the in-flow kernel) with a fraction of
//       untracked background segments (skip lanes).  The vector loop
//       must hold >= 1.3x the scalar loop here (mean of 3 runs,
//       recorded in BENCH_worker.json).
//   SkipHeavy — in-flow kernel off: every candidate lane is an untracked
//       skip, isolating the batched classify/probe stages.
//   PrefetchDepth — the rx-loop lookahead knob (flow.prefetch_depth)
//       swept 0..4 over the established-heavy mix on the vector loop.
//   Transpacific — the fig2 workload on one worker, both kernels; the
//       pair doubles as the regression smoke (tools/check.sh invariants
//       fails when vector:1 runs below 0.95x of vector:0 in the same
//       invocation).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "bench_util.hpp"
#include "flow/worker.hpp"
#include "net/packet_builder.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace ruru;

void push_tcp(std::vector<std::vector<std::uint8_t>>& out, Ipv4Address client, Ipv4Address server,
              std::uint16_t cport, bool c2s, std::uint8_t flags, std::uint32_t seq,
              std::uint32_t ack, std::uint32_t tsval, std::uint32_t tsecr, std::size_t payload) {
  TcpFrameSpec s;
  s.src_ip = c2s ? client : server;
  s.dst_ip = c2s ? server : client;
  s.src_port = c2s ? cport : 443;
  s.dst_port = c2s ? 443 : cport;
  s.flags = flags;
  s.seq = seq;
  s.ack = ack;
  s.payload_length = payload;
  s.with_timestamps = tsval != 0;
  s.ts_val = tsval;
  s.ts_ecr = tsecr;
  out.push_back(build_tcp_frame(s));
}

/// The established-heavy mix: kFlows resident flows cycling timestamped
/// request/response pairs, one untracked background segment per four
/// flows.  `setup` holds the timestamped handshakes that make the flows
/// resident; `data` is the steady-state burst material.
///
/// The flow population is ISP-scale on purpose: 1M resident flows in a
/// 4M-slot table put the hot/cold SoA arrays (hot_ alone is 256MB) past
/// even a large server L3, so every probe is a genuine DRAM access —
/// the regime the batched prefetch-then-resolve stages exist for, and
/// the population Ruru's 10Gbps ISP deployment actually tracks.  (A few
/// hundred flows fit in L1 and measure only lane bookkeeping overhead.)
struct EstablishedMix {
  static constexpr int kFlows = 1 << 20;
  static constexpr std::uint32_t kRounds = 2;
  std::vector<std::vector<std::uint8_t>> setup;
  std::vector<std::vector<std::uint8_t>> data;

  static Ipv4Address client_addr(std::uint8_t net, int i) {
    // net selects a /12 (tracked vs background); the low 20 bits of i
    // spread across the remaining octets so 1M flows stay tuple-unique.
    return Ipv4Address(10, static_cast<std::uint8_t>((net << 4) | ((i >> 16) & 15)),
                       static_cast<std::uint8_t>((i >> 8) & 255),
                       static_cast<std::uint8_t>(i & 255));
  }

  /// Ephemeral port decorrelated from the client address.  The symmetric
  /// RSS key folds the tuple to 16 bits of XOR entropy; a port that
  /// tracks the address (40000 + i against 10.x.(i>>8).(i&255)) cancels
  /// most of it and collapses the table's home slots, which no real
  /// traffic does — so scramble i the way a kernel's ephemeral-port
  /// allocator would.
  static std::uint16_t client_port(int i) {
    const auto r = static_cast<std::uint32_t>(i) * 2654435761u;  // Fibonacci hashing
    return static_cast<std::uint16_t>(1024 + (r >> 17));
  }

  EstablishedMix() {
    const auto server = Ipv4Address(10, 2, 0, 1);
    for (int i = 0; i < kFlows; ++i) {
      const auto client = client_addr(1, i);
      const auto cport = client_port(i);
      push_tcp(setup, client, server, cport, true, TcpFlags::kSyn, 1000, 0, 100, 0, 0);
      push_tcp(setup, client, server, cport, false, TcpFlags::kSyn | TcpFlags::kAck, 5000, 1001,
               500, 100, 0);
      push_tcp(setup, client, server, cport, true, TcpFlags::kAck, 1001, 5001, 105, 500, 0);
    }
    // Round-robin across flows (not per-flow blocks): consecutive lanes
    // hit different table groups, the shape real RSS-sprayed bursts have.
    for (std::uint32_t r = 0; r < kRounds; ++r) {
      for (int i = 0; i < kFlows; ++i) {
        const auto client = client_addr(1, i);
        const auto cport = client_port(i);
        push_tcp(data, client, server, cport, true, TcpFlags::kAck, 1001, 5001, 200 + r,
                 r == 0 ? 0 : 600 + r - 1, 64);
        push_tcp(data, client, server, cport, false, TcpFlags::kAck, 5001, 1065, 600 + r, 200 + r,
                 64);
        if (i % 4 == 0) {
          // Untracked background flow: a pure data segment nobody is
          // following — the skip lane.
          push_tcp(data, client_addr(9, i), server, static_cast<std::uint16_t>(client_port(i) ^ 0x8000u),
                   true, TcpFlags::kAck, 1, 1, 0, 0, 32);
        }
      }
    }
  }

  static const EstablishedMix& instance() {
    static const EstablishedMix mix;
    return mix;
  }
};

/// One worker fed the established mix; `kernel` and `depth` select the
/// loop under test.  Injection (Toeplitz + frame copy, identical for
/// both kernels) happens with the timer paused: the measured region is
/// the poll loop itself — rx_burst, classify, probes, resolve — which is
/// what the two kernels differ in.
void run_established(benchmark::State& state, QueueWorker::LoopKernel kernel, std::size_t depth,
                     bool inflow_on) {
  constexpr std::size_t kChunk = 16'384;  // == queue depth: one fill per iteration
  const EstablishedMix& mix = EstablishedMix::instance();

  Mempool pool(1 << 15, 2048);
  NicConfig cfg;
  cfg.num_queues = 1;
  cfg.queue_depth = kChunk;
  SimNic nic(cfg, pool);
  InflowConfig icfg;
  icfg.enabled = inflow_on;
  icfg.min_interval = Duration{0};
  QueueWorker worker(nic, 0, EstablishedMix::kFlows * 4, nullptr, Duration::from_sec(1e6),
                     FlowTable::kDefaultProbeWindow, icfg);
  worker.set_loop_kernel(kernel);
  worker.set_prefetch_depth(depth);

  std::int64_t t = 0;
  for (const auto& f : mix.setup) {
    nic.inject(f, Timestamp::from_ns(++t));
    worker.poll_once();
  }
  while (worker.poll_once() != 0) {
  }

  std::size_t cursor = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t k = 0; k < kChunk; ++k) {
      nic.inject(mix.data[cursor], Timestamp::from_ns(++t));
      cursor = cursor + 1 == mix.data.size() ? 0 : cursor + 1;
    }
    state.ResumeTiming();
    while (worker.poll_once() != 0) {
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kChunk));
  state.counters["skips"] = static_cast<double>(worker.stats().fast_path_skips.load());
  state.counters["consumed"] = static_cast<double>(worker.stats().inflow_consumed.load());
  state.counters["revalidated"] = static_cast<double>(worker.stats().lane_revalidated.load());
  state.counters["resident"] = static_cast<double>(worker.tracker().table().size());
  state.counters["insert_failures"] =
      static_cast<double>(worker.tracker().table().stats().insert_failures.load());
}

void BM_WorkerEstablishedHeavy(benchmark::State& state) {
  const auto kernel =
      state.range(0) == 0 ? QueueWorker::LoopKernel::kScalar : QueueWorker::LoopKernel::kVector;
  run_established(state, kernel, /*depth=*/1, /*inflow_on=*/true);
}
BENCHMARK(BM_WorkerEstablishedHeavy)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("vector")
    ->Unit(benchmark::kMillisecond);

void BM_WorkerSkipHeavy(benchmark::State& state) {
  // In-flow kernel off: tracked flows' data segments skip, making every
  // candidate lane a pure classify-and-skip — the batched probe stages
  // with no per-lane kernel work to hide behind.
  const auto kernel =
      state.range(0) == 0 ? QueueWorker::LoopKernel::kScalar : QueueWorker::LoopKernel::kVector;
  run_established(state, kernel, /*depth=*/1, /*inflow_on=*/false);
}
BENCHMARK(BM_WorkerSkipHeavy)->Arg(0)->Arg(1)->ArgName("vector")->Unit(benchmark::kMillisecond);

void BM_WorkerPrefetchDepth(benchmark::State& state) {
  // On the scalar loop the depth is the classic lookahead distance
  // (flow.prefetch_depth's pre-PR meaning) — 1 vs 2 is the interesting
  // comparison.  On the vector loop the staged prefetch covers the whole
  // burst, so depth only gates it: 0 (off) vs nonzero (on).
  const auto kernel =
      state.range(0) == 0 ? QueueWorker::LoopKernel::kScalar : QueueWorker::LoopKernel::kVector;
  run_established(state, kernel, static_cast<std::size_t>(state.range(1)), /*inflow_on=*/true);
}
BENCHMARK(BM_WorkerPrefetchDepth)
    ->ArgsProduct({{0, 1}, {0, 1, 2, 3, 4}})
    ->ArgNames({"vector", "depth"})
    ->Unit(benchmark::kMillisecond);

// The fig2 workload on one worker — handshake churn, data segments,
// realistic arrival order — both kernels.  The scalar number is the
// same-invocation reference for the check.sh regression smoke.
void BM_WorkerTranspacific(benchmark::State& state) {
  const auto kernel =
      state.range(0) == 0 ? QueueWorker::LoopKernel::kScalar : QueueWorker::LoopKernel::kVector;
  static const std::vector<TimedFrame>& frames = [] {
    static auto model = scenarios::transpacific(0xF162, 4000.0, Duration::from_sec(5.0));
    static const auto f = ruru::bench::pregenerate(model);
    return f;
  }();

  std::uint64_t samples_total = 0;
  // Lane-occupancy distributions (EXPERIMENTS.md E13): candidate lanes
  // per poll and consecutive-candidate run lengths, recorded by the
  // vector loop's classify stage.
  obs::MetricsRegistry metrics;
  for (auto _ : state) {
    Mempool pool(1 << 16, 2048);
    NicConfig cfg;
    cfg.num_queues = 1;
    cfg.queue_depth = 16384;
    SimNic nic(cfg, pool);
    InflowConfig icfg;
    icfg.enabled = true;
    std::uint64_t samples = 0;
    QueueWorker worker(nic, 0, 1 << 14, [&samples](const LatencySample&) { ++samples; },
                       Duration::from_sec(30.0), FlowTable::kDefaultProbeWindow, icfg);
    worker.set_loop_kernel(kernel);
    WorkerObs wobs;
    wobs.poll_batch = metrics.histogram("worker.poll_batch");
    wobs.burst_candidates = metrics.histogram("worker.burst_candidates");
    wobs.candidate_run_len = metrics.histogram("worker.candidate_run_len");
    worker.set_obs(wobs);
    std::size_t pending = 0;
    for (const auto& f : frames) {
      while (!nic.inject(f.frame, f.timestamp)) worker.poll_once();
      if (++pending >= 64) {
        worker.poll_once();
        pending = 0;
      }
    }
    while (worker.poll_once() != 0) {
    }
    samples_total += samples;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(frames.size()) * state.iterations());
  state.counters["samples"] =
      static_cast<double>(samples_total) / static_cast<double>(state.iterations());
  const auto snap = metrics.snapshot(Timestamp::from_ns(0));
  if (const auto* h = snap.histogram("worker.burst_candidates"); h != nullptr && h->count != 0) {
    state.counters["cand_p50"] = static_cast<double>(h->percentile(0.5));
    state.counters["cand_p90"] = static_cast<double>(h->percentile(0.9));
    state.counters["cand_mean"] = h->mean();
  }
  if (const auto* h = snap.histogram("worker.candidate_run_len"); h != nullptr && h->count != 0) {
    state.counters["run_p50"] = static_cast<double>(h->percentile(0.5));
    state.counters["run_p90"] = static_cast<double>(h->percentile(0.9));
  }
  if (const auto* h = snap.histogram("worker.poll_batch"); h != nullptr && h->count != 0) {
    state.counters["poll_p50"] = static_cast<double>(h->percentile(0.5));
  }
}
BENCHMARK(BM_WorkerTranspacific)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("vector")
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
