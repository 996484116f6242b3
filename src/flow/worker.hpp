#pragma once
// Per-queue poll-mode worker: the "DPDK processing thread" of Figure 2.
//
// Each worker owns one RX queue and one flow table (no sharing, no
// locks — symmetric RSS guarantees both directions of a flow arrive on
// this queue).  Parsed handshake completions are handed to a sample sink
// which the pipeline wires to the message bus.  A processed burst goes
// back to the NIC on the queue's recycle ring (SimNic::recycle), one
// release store per burst: the worker never takes the mempool's lock.
//
// A burst is resolved as a software-pipelined vector of stages over an
// SoA descriptor (flow/burst_desc.hpp):
//
//  1. ingest — fill the frame / rss / timestamp lanes (packet + byte
//     accounting, configurable-depth mbuf prefetch);
//  2. batched pre-parse + branchless classify — probe_tcp_fast_batch
//     fills the probe lanes, then one masked byte-compare per 16 lanes
//     (group_masked_eq, scalar/SIMD twins) partitions the burst into
//     fast-path candidates (pure data segments: ACK set, no SYN/FIN/RST)
//     and full-parse lanes, which are parsed here;
//  3. batched flow-table probe — every candidate lane's group prefetch
//     issues up front, then the mutation-free classify probes resolve
//     back-to-back over warm lines (FlowTable::probe_batch);
//  4. resolve in arrival order, run-partitioned: full-parse lanes stage
//     tracker items; candidate lanes consume their provisional verdict
//     (replaying the stats the mutating lookup would have counted), and
//     flush_items() runs once per *run* of consecutive candidate lanes
//     instead of once per candidate.  Both tracking modes resolve
//     candidates through the same lookup (HandshakeTracker::
//     inflow_lookup / inflow_resolve): with the in-flow kernel off a
//     flow leaves the table when its handshake completes, so a verdict
//     is only ever "skip" or "parse".  The flush-before-skip-decision
//     rule is preserved at lane granularity: a candidate following any
//     staged item still flushes first, so a handshake completing within
//     the burst is visible to the very next data segment; any flush (or
//     a reclamation inside a stale-entry reprobe) voids the remaining
//     provisional verdicts and those lanes fall back to the mutating
//     lookup.  Emitted samples, skip decisions and every stats counter
//     are bit-identical to the retired one-probe-per-packet loop, which
//     is kept as poll_once_scalar() (LoopKernel::kScalar) as the fuzz
//     oracle.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "driver/nic.hpp"
#include "flow/burst_desc.hpp"
#include "flow/handshake_tracker.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ruru {

/// Observability hooks for one worker, installed by the pipeline before
/// the worker runs.  Default-constructed handles are inert no-ops, so a
/// worker without hooks pays only a null check per record site.
struct WorkerObs {
  obs::HistogramHandle poll_batch;  ///< packets per non-empty rx_burst
  obs::HistogramHandle batch_fill;  ///< samples per batch-sink flush
  obs::HistogramHandle inflow_rtt;  ///< ns per kInflow RTT sample
  /// ns per kOneSided departure delta — its own distribution: a
  /// departure delta measures sender pacing, not a round trip, and
  /// mixing the two made flow.inflow_rtt_ns bimodal on asymmetric taps.
  obs::HistogramHandle one_sided_delta;
  obs::HistogramHandle burst_candidates;   ///< candidate lanes per non-empty poll
  obs::HistogramHandle candidate_run_len;  ///< consecutive candidate lanes per run
  FlowTableObs flow;                ///< probe-length / group-occupancy
};

/// Single-writer cells (the owning worker thread): readable live by the
/// metrics snapshot thread without tearing.
struct WorkerStats {
  StatCell polls = 0;
  StatCell empty_polls = 0;
  /// Times run() slept on its queue's doorbell after its spin budget of
  /// empty polls ran out.  Counted apart from empty_polls, which keeps
  /// meaning "polls that found nothing".
  StatCell parks = 0;
  StatCell packets = 0;
  StatCell bytes = 0;
  /// Counts by ParseStatus value (kOk..kMalformed). Packets the fast
  /// path skips are NOT counted here; conservation is
  ///   packets == sum(parse_status) + fast_path_skips.
  std::array<StatCell, 5> parse_status{};
  /// Data segments of untracked flows dismissed by the fixed-offset
  /// pre-parse probe without a full parse_packet().
  StatCell fast_path_skips = 0;
  /// Data segments of established flows consumed by the in-flow
  /// timestamp kernel without a full parse_packet().  Like skips they
  /// bypass parse_status; conservation becomes
  ///   packets == sum(parse_status) + fast_path_skips + inflow_consumed.
  StatCell inflow_consumed = 0;
  /// Batch-sink flushes (any trigger: full, idle, linger, shutdown).
  StatCell batch_flushes = 0;
  /// Samples handed to the batch sink across all flushes.
  StatCell batched_samples = 0;
  /// --- vector-loop lane accounting (zero under LoopKernel::kScalar) ---
  /// Candidate lanes resolved as untracked skips (subset of
  /// fast_path_skips attributable to the lane loop).
  StatCell lane_skip = 0;
  /// Candidate lanes consumed by the in-flow kernel (subset of
  /// inflow_consumed).
  StatCell lane_established = 0;
  /// Candidate lanes that fell back to a full parse (mid-handshake
  /// flows, invalid-length established segments).
  StatCell lane_need_parse = 0;
  /// Candidate lanes whose provisional verdict was voided by an
  /// intra-burst mutation (flush or reclamation) and re-ran the
  /// mutating lookup.
  StatCell lane_revalidated = 0;
  /// Provisional walks that saw a stale verified entry and re-ran the
  /// real probe for exact reclamation/stats.
  StatCell classify_reprobes = 0;
};

class QueueWorker {
 public:
  using SampleSink = std::function<void(const LatencySample&)>;
  /// Batched variant of SampleSink: receives the worker's accumulated
  /// samples in emission order. The span is only valid for the duration
  /// of the call (the accumulator is reused).
  using BatchSink = std::function<void(std::span<const LatencySample>)>;
  /// Optional hook for SYN-only IPv4 segments (capture time, server
  /// address) — feeds the SYN-flood module, which must observe
  /// addresses *before* the anonymization boundary.  The worker stages a
  /// burst's SYNs and hands them over in one call, in arrival order: at
  /// the end of the burst, and before any sample batch flushes, so the
  /// hook sees SYNs and completions in the order the per-packet loop
  /// produced them.  The span is valid for the duration of the call.
  using SynBatchSink = std::function<void(std::span<const SynEvent>)>;
  /// Per-SYN form of SynBatchSink.
  using SynSink = std::function<void(Timestamp, Ipv4Address)>;

  static constexpr std::size_t kBurst = SimNic::kRxBurst;
  static_assert(kBurst == BurstDesc::kLanes, "rx burst and descriptor lanes must agree");
  /// Flow-table groups the incremental staleness sweep examines after
  /// each non-empty burst (the whole table is covered every
  /// capacity / (16 * kSweepGroupsPerBurst) bursts).
  static constexpr std::size_t kSweepGroupsPerBurst = 4;
  /// Upper bound on the rx-loop prefetch depth (lookahead distance in
  /// mbufs); deeper than this outruns any plausible L1 latency.
  static constexpr std::size_t kMaxPrefetchDepth = 4;
  /// run()'s spin budget: empty polls allowed per frame of the last
  /// non-empty burst before the worker parks, up to kMaxSpinPolls.  Full
  /// bursts (a loaded queue) keep the worker spinning between them;
  /// one- or two-frame bursts (a quiet tap) let it park almost at once.
  static constexpr std::size_t kSpinPollsPerFrame = 64;
  static constexpr std::size_t kMaxSpinPolls = 2048;

  /// Which poll-loop implementation runs.  kVector (the default) is the
  /// staged lane pipeline; kScalar is the retired one-probe-per-packet
  /// loop, kept bit-identical as the fuzz/bench oracle.
  enum class LoopKernel : std::uint8_t { kVector, kScalar };

  QueueWorker(SimNic& nic, std::uint16_t queue_id, std::size_t flow_table_capacity,
              SampleSink sink, Duration stale_after = Duration::from_sec(30.0),
              std::size_t probe_window = FlowTable::kDefaultProbeWindow,
              InflowConfig inflow = {});

  /// Install before the worker runs (not thread-safe afterwards).
  void set_syn_batch_sink(SynBatchSink sink) { syn_sink_ = std::move(sink); }
  /// Per-SYN adapter over set_syn_batch_sink().
  void set_syn_sink(SynSink sink);

  /// Enable/disable the pre-parse fast path (default on): a fixed-offset
  /// probe reads the TCP flags byte and skips full parse_packet() for
  /// pure data segments (ACK set, no SYN/FIN/RST) of flows the tracker
  /// is not following — the overwhelming majority of line-rate traffic.
  /// Handshake and teardown segments, fragments, non-TCP and anything
  /// the probe cannot bound-check all take the full parse, so emitted
  /// samples are bit-identical either way. Skips are counted in
  /// WorkerStats::fast_path_skips (they bypass parse_status).
  void set_fast_path(bool enabled) { fast_path_ = enabled; }

  /// Select the poll-loop kernel before the worker runs (not thread-safe
  /// afterwards).  Samples, skip decisions and stats counters (other
  /// than the lane_* cells, which only the vector loop drives) are
  /// bit-identical across kernels.
  void set_loop_kernel(LoopKernel kernel) { loop_kernel_ = kernel; }
  [[nodiscard]] LoopKernel loop_kernel() const { return loop_kernel_; }

  /// Rx-loop prefetch knob (default 1, clamped to [0, kMaxPrefetchDepth];
  /// 0 disables prefetching).  On the scalar kernel it is the classic
  /// lookahead distance (prefetch lane i+depth while resolving lane i).
  /// On the vector kernel the staged pipeline already spans the whole
  /// burst, so any nonzero depth enables the stage 0/1 burst prefetch
  /// and the distance itself is moot.  Purely a memory-timing knob,
  /// never a semantic one.
  void set_prefetch_depth(std::size_t depth) {
    prefetch_depth_ = depth > kMaxPrefetchDepth ? kMaxPrefetchDepth : depth;
  }
  [[nodiscard]] std::size_t prefetch_depth() const { return prefetch_depth_; }

  /// Install a batched sink before the worker runs (not thread-safe
  /// afterwards). Samples accumulate in a reused per-worker buffer —
  /// amortized zero allocation — and flush when:
  ///  * the accumulator reaches `batch_size` (clamped to
  ///    [1, kMaxLatencyBatch]); or
  ///  * a poll comes back empty (end-of-burst idle); or
  ///  * `linger` > 0 and the oldest buffered sample is older than
  ///    `linger` in capture time, so low-rate traffic is not delayed.
  /// `batch_size` == 1 flushes every sample — the pre-batching
  /// behaviour. A per-sample SampleSink, if also set, keeps firing.
  void set_batch_sink(BatchSink sink, std::size_t batch_size,
                      Duration linger = Duration{0});

  /// Install metric handles before the worker runs (not thread-safe
  /// afterwards). The handles must outlive the worker's run.
  void set_obs(WorkerObs obs) {
    obs_ = obs;
    tracker_.set_table_obs(obs.flow);
  }

  /// Install the flight-recorder hook before the worker runs (not
  /// thread-safe afterwards).  `sample_n` mirrors the NIC's 1-in-N rate
  /// so the worker re-derives each emitted sample's trace id from its
  /// RSS hash.  A default (inert) handle keeps the poll loop on the
  /// single `attached()` null-check path.
  void set_trace(obs::TraceHandle trace, std::uint32_t sample_n) {
    trace_ = trace;
    trace_sample_n_ = sample_n;
  }

  /// Hands any accumulated samples to the batch sink now.
  void flush_batch();

  /// One rx_burst + processing pass. Returns packets handled (0 == empty
  /// poll).
  std::size_t poll_once();

  /// Poll until `stop` becomes true, then drain the queue dry once.
  /// Between bursts the worker spins its budget of empty polls, then
  /// parks on the queue's doorbell (SimNic::wait_rx) for at most
  /// kParkTimeout, so `stop` is seen within about a millisecond.
  void run(const std::atomic<bool>& stop);

  [[nodiscard]] const WorkerStats& stats() const { return stats_; }
  [[nodiscard]] const TrackerStats& tracker_stats() const { return tracker_.stats(); }
  [[nodiscard]] const HandshakeTracker& tracker() const { return tracker_; }
  [[nodiscard]] std::uint16_t queue_id() const { return queue_id_; }

 private:
  /// Pass-1 classification of one mbuf, resolved in arrival order by
  /// pass 2.
  struct Pending {
    enum class Kind : std::uint8_t {
      kParsed,    ///< slow path: parsed in pass 1 (status + view set)
      kCandidate  ///< fast-path candidate: pure data segment, key set
    };
    Kind kind = Kind::kParsed;
    ParseStatus status = ParseStatus::kOk;
    std::uint32_t mbuf = 0;  ///< index into the rx burst
    /// Candidate-only probe carry-over for the in-flow timestamp probe.
    std::uint16_t l4_offset = 0;
    bool probe_v4 = true;
    PacketView view;
    FlowKey key;
  };

  /// Runs accumulated parsed packets through the tracker and delivers
  /// every emitted sample.
  void flush_items();
  /// Stages a parsed packet for flush_items(), and its SYN for the hook.
  void stage_item(const PacketView& view, const Mbuf& m);
  /// Hands the staged SYNs to the hook.
  void flush_syns();
  /// Ends a non-empty poll: SYNs out, a few groups swept, and the burst
  /// handed back to the NIC.  Nothing may read the burst afterwards.
  void finish_burst(std::span<MbufPtr> burst);
  /// Delivers whatever is staged in samples_ (trace ids, histograms,
  /// sinks) — shared by flush_items() and the in-flow fast path.
  void deliver_staged();
  void deliver_sample(const LatencySample& sample);

  /// The staged lane pipeline (LoopKernel::kVector, the default).
  std::size_t poll_once_vector();
  /// The retired per-packet loop, kept bit-identical as the oracle.
  std::size_t poll_once_scalar();

  SimNic& nic_;
  std::uint16_t queue_id_;
  HandshakeTracker tracker_;
  SampleSink sink_;
  SynBatchSink syn_sink_;
  BatchSink batch_sink_;
  bool fast_path_ = true;
  LoopKernel loop_kernel_ = LoopKernel::kVector;
  std::size_t prefetch_depth_ = 1;
  std::size_t batch_size_ = 1;
  Duration batch_linger_{0};
  std::vector<LatencySample> batch_;   ///< reused accumulator
  Timestamp batch_oldest_{};           ///< capture time of batch_[0]
  std::array<Pending, kBurst> pending_;       ///< parse scratch (both kernels)
  BurstDesc desc_;                            ///< vector-loop lane scratch
  std::vector<TrackedPacket> items_;          ///< reused, capacity kBurst
  std::vector<LatencySample> samples_;        ///< reused, capacity 2 * kBurst
  std::vector<SynEvent> syns_;                ///< reused, capacity kBurst
  obs::TraceHandle trace_;
  std::uint32_t trace_sample_n_ = 0;
  WorkerObs obs_;
  WorkerStats stats_;
};

}  // namespace ruru
