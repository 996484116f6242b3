#pragma once
// The Figure-1 measurement logic: SYN / SYN-ACK / ACK timestamp capture.
//
// Per the paper, exactly three timestamps are recorded per flow: the
// *first* SYN, the SYN-ACK *following* it, and the *first* ACK.
// Retransmissions are therefore deliberately not re-stamped: a repeated
// SYN keeps the original timestamp (so a lost-then-answered SYN inflates
// the measured external latency by the RTO — a real property of the
// deployed system this reproduction preserves), and duplicate SYN-ACKs /
// later ACKs are ignored via sequence-number validation.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "flow/flow_table.hpp"
#include "flow/latency_sample.hpp"
#include "net/packet_view.hpp"

namespace ruru {

/// Single-writer cells (the owning worker thread): readable live by the
/// metrics snapshot thread without tearing.
struct TrackerStats {
  StatCell syn_seen = 0;
  StatCell syn_retransmissions = 0;
  StatCell synack_seen = 0;
  StatCell synack_unmatched = 0;  ///< no awaiting SYN (e.g. pre-capture flow)
  StatCell ack_matched = 0;
  StatCell rst_seen = 0;
  StatCell samples_emitted = 0;
  StatCell table_drops = 0;  ///< SYN not inserted (table pressure)
};

/// Single-writer cells for the in-flow RTT kernel.
struct InflowStats {
  StatCell ts_matches = 0;         ///< TSecr hits against a noted TSval
  StatCell ts_ring_evictions = 0;  ///< live note overwritten by a full ring
  StatCell ts_wraps = 0;           ///< TSval wrap/reset detected while noting
  StatCell inflow_samples = 0;     ///< kInflow samples emitted (post rate limit)
  StatCell one_sided_samples = 0;  ///< kOneSided samples emitted
  StatCell rate_limited = 0;       ///< matches suppressed by min_interval
};

/// Continuous in-flow RTT configuration (off by default: handshake-only
/// tracking, bit-identical to the pre-feature pipeline).
struct InflowConfig {
  bool enabled = false;
  /// Per-flow, per-direction timestamp ring entries (rounded up to a
  /// power of two by the table).
  std::size_t ring_entries = 8;
  /// Emit at most one in-flow sample per flow direction per interval —
  /// "first match per RTT window".  Zero emits every match.
  Duration min_interval = Duration::from_ms(10);
};

/// One parsed packet queued for batched tracking: everything process()
/// needs, staged so a whole RX burst resolves with table prefetch
/// pipelined one packet ahead.
struct TrackedPacket {
  PacketView view;
  Timestamp rx_time;
  std::uint32_t rss_hash = 0;
};

class HandshakeTracker {
 public:
  explicit HandshakeTracker(std::size_t table_capacity,
                            Duration stale_after = Duration::from_sec(30.0),
                            std::size_t probe_window = FlowTable::kDefaultProbeWindow,
                            InflowConfig inflow = {})
      : table_(table_capacity, stale_after, probe_window,
               inflow.enabled ? inflow.ring_entries : 0),
        inflow_(inflow) {}

  /// Feed one parsed TCP packet observed at `rx_time`. Returns a sample
  /// when this packet is the first ACK completing a tracked handshake.
  /// Handshake-only view: in-flow samples are dropped — use the vector
  /// overload when the in-flow kernel is enabled.
  std::optional<LatencySample> process(const PacketView& pkt, Timestamp rx_time,
                                       std::uint32_t rss_hash, std::uint16_t queue_id);

  /// Full-parse entry point: handshake tracking plus (when enabled) the
  /// in-flow timestamp kernel.  Appends zero or more samples to `out`.
  void process(const PacketView& pkt, Timestamp rx_time, std::uint32_t rss_hash,
               std::uint16_t queue_id, std::vector<LatencySample>& out);

  /// --- fast-path lookup (worker pass 2, both tracking modes) --------
  /// The worker resolves every pure data segment without a full parse:
  /// inflow_lookup() classifies the flow, then (for established flows)
  /// inflow_established() runs the timestamp kernel on the fixed-offset
  /// option probe.  With the in-flow kernel off, a flow is erased when
  /// its handshake completes, so the verdict is only ever kUntracked or
  /// kNeedParse.  Split in two so the caller can extract options
  /// between the lookup and the kernel, behind the ring prefetch the
  /// lookup issues.
  enum class InflowVerdict : std::uint8_t {
    kUntracked,    ///< no live slot: skip the packet entirely
    kNeedParse,    ///< tracked but mid-handshake: full parse required
    kEstablished,  ///< slot valid, touched, rings prefetched
  };
  struct InflowLookup {
    InflowVerdict verdict = InflowVerdict::kUntracked;
    FlowTable::Slot slot = FlowTable::kNoSlot;
  };
  [[nodiscard]] InflowLookup inflow_lookup(const FlowKey& key, std::uint32_t rss_hash,
                                           Timestamp now);

  /// Batched, mutation-free classification of fast-path candidate lanes:
  /// all group prefetches issue up front, then the probes resolve over
  /// warm lines (FlowTable::probe_batch).  The verdicts are provisional —
  /// resolve each lane with inflow_resolve() (or the plain mutating
  /// lookup after any intra-burst table mutation).
  void inflow_lookup_batch(const std::uint32_t* idx, std::size_t n_idx, const FlowKey* keys,
                           const std::uint32_t* rss, const std::int64_t* ts_ns,
                           FlowTable::FlowClassify* out) const {
    table_.probe_batch(idx, n_idx, keys, rss, ts_ns, out);
  }

  /// Turns a still-valid provisional classification into the exact
  /// inflow_lookup() outcome, replaying the stats the mutating lookup
  /// would have counted.  When the classify walk saw a stale verified
  /// match (`c.stale_seen`) the real lookup runs instead — it reclaims
  /// and counts exactly as the scalar loop would — and `reprobed`
  /// reports whether that lookup actually mutated the table (in which
  /// case later provisional verdicts in the burst are void).  Inline
  /// because every candidate lane of the vector loop, in both tracking
  /// modes, resolves here (out of line it cost the skip-heavy mix ~10%).
  [[nodiscard]] InflowLookup inflow_resolve(const FlowTable::FlowClassify& c, const FlowKey& key,
                                            std::uint32_t rss_hash, Timestamp now,
                                            bool& reprobed) {
    reprobed = false;
    if (c.stale_seen) [[unlikely]] {
      // The provisional walk passed a verified-but-stale entry find()
      // reclaims: rerun the mutating lookup so state and stats land
      // exactly where the scalar loop would put them.  Only an actual
      // reclamation invalidates the rest of the burst's verdicts (an
      // entry since freshened by an earlier lane's touch does not).
      const std::uint64_t before = table_.stats().evictions_stale.load();
      InflowLookup r = inflow_lookup(key, rss_hash, now);
      reprobed = table_.stats().evictions_stale.load() != before;
      return r;
    }
    InflowLookup r;
    if (c.kind != FlowTable::ClassifyKind::kLive) {
      table_.apply_miss_stats(c);
      return r;  // kUntracked
    }
    table_.apply_hit_stats(c);
    r.slot = c.slot;
    if (table_.data(c.slot).state != HandshakeState::kEstablished) {
      // Mid-handshake: the state machine needs the full parse (no touch —
      // inflow_lookup() leaves mid-handshake entries untouched too).
      r.verdict = InflowVerdict::kNeedParse;
      return r;
    }
    table_.touch(c.slot, now);
    // No ts_prefetch here: probe_batch's resolve phase already warmed the
    // rings (vals, times, state) a full stage earlier.
    r.verdict = InflowVerdict::kEstablished;
    return r;
  }
  /// Runs the timestamp kernel for an established slot returned by
  /// inflow_lookup().  `forward` is the packet's FlowKey::forward.
  void inflow_established(FlowTable::Slot slot, bool forward, const FastTsProbe& ts,
                          Timestamp rx_time, std::uint32_t rss_hash, std::uint16_t queue_id,
                          std::vector<LatencySample>& out);

  /// Batched process(): resolves `pkts` in order, appending every
  /// emitted sample to `out` (not cleared).  The next packet's flow-
  /// table group is prefetched while the current one is processed —
  /// same lookahead pipelining as Enricher::enrich_batch — so the probe
  /// loads are warm by the time they issue.  Emitted samples and stats
  /// are identical to calling process() per packet.
  void process_burst(std::span<const TrackedPacket> pkts, std::uint16_t queue_id,
                     std::vector<LatencySample>& out);

  /// Warm the flow-table group `rss_hash` probes into — issue ahead of
  /// the process()/inflow_lookup() call that will need it.
  void prefetch(std::uint32_t rss_hash) const { table_.prefetch(rss_hash); }

  /// Advance the table's incremental staleness sweep (a few groups per
  /// RX burst). Returns entries reclaimed.
  std::size_t sweep(Timestamp now, std::size_t max_groups) {
    return table_.sweep(now, max_groups);
  }

  /// Install before the tracker runs (not thread-safe afterwards).
  void set_table_obs(FlowTableObs obs) { table_.set_obs(obs); }

  [[nodiscard]] const TrackerStats& stats() const { return stats_; }
  [[nodiscard]] const InflowStats& inflow_stats() const { return inflow_stats_; }
  [[nodiscard]] const FlowTable& table() const { return table_; }

 private:
  /// What process_core() did with the packet, for the in-flow layer on
  /// top: which slot (if any) the packet resolved to and whether that
  /// slot is still live afterwards.
  struct CoreOutcome {
    FlowTable::Slot slot = FlowTable::kNoSlot;
    bool erased = false;
    std::optional<LatencySample> sample;
  };
  CoreOutcome process_core(const PacketView& pkt, Timestamp rx_time, std::uint32_t rss_hash,
                           std::uint16_t queue_id);

  /// The shared timestamp kernel: match the packet's TSecr against the
  /// opposite direction's ring, then note its TSval (eliciting segments
  /// only: payload, SYN or FIN — pure ACKs draw no timely echo and would
  /// just flush the ring).
  void inflow_segment(FlowTable::Slot slot, bool forward, bool has_payload, bool syn, bool fin,
                      std::uint32_t ts_val, std::uint32_t ts_ecr, Timestamp rx_time,
                      std::uint32_t rss_hash, std::uint16_t queue_id,
                      std::vector<LatencySample>& out);

  /// Rate-limited sample emission for the in-flow kinds.
  void emit_inflow(FlowTable::Slot slot, unsigned dir, SampleKind kind, Timestamp departed,
                   Timestamp rx_time, std::uint32_t rss_hash, std::uint16_t queue_id,
                   std::vector<LatencySample>& out);

  FlowTable table_;
  InflowConfig inflow_;
  TrackerStats stats_;
  InflowStats inflow_stats_;
};

}  // namespace ruru
