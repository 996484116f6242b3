#pragma once
// Fixed-capacity group-probed flow table, indexed by the RSS hash.
//
// The paper keeps per-flow handshake timestamps "in hash tables (indexed
// by the RSS hash)" — one table per RX queue, so tables are single-
// threaded and need no locks.  The layout is two-level, Swiss-table
// style:
//
//  * a contiguous control array, one byte per slot: either a 7-bit
//    fingerprint (a "tag") or an empty/tombstone sentinel, probed one
//    16-slot group per vector compare (src/flow/group_probe.hpp).
//    Placement is indexed by the RSS hash (the paper's scheme) but the
//    tag fingerprints the canonical five-tuple: flows that share an RSS
//    hash (symmetric-RSS piles, hash-poor NICs) pile into one probe
//    window either way, yet tuple tags keep them distinguishable at the
//    control byte, so a pile costs one vector compare instead of a hot
//    row verification per resident flow;
//  * an SoA split of the verification data the probe actually needs —
//    hot: canonical five-tuple + rss_hash (one cache line per slot) and
//    a separate last_seen array the staleness sweep scans linearly —
//    from the cold handshake payload (three timestamps, sequence
//    numbers, state) touched only on a verified match.
//
// Slots are located by probing a bounded window of consecutive groups;
// stale entries (handshakes that never completed) are reclaimed by an
// incremental sweep (sweep(), a few groups per burst) plus lazily when a
// probe verifies a match against a dead entry.  Both turn the slot into
// a tombstone, never back into "empty": inserts claim the first empty
// *or* tombstone in probe order, so no live key ever sits past an empty
// byte in its probe sequence — which is what lets every probe stop at
// the first group containing an empty slot.

#include <cstdint>
#include <limits>
#include <vector>

#include <array>

#include "flow/group_probe.hpp"
#include "flow/ts_ring.hpp"
#include "net/five_tuple.hpp"
#include "obs/metrics.hpp"
#include "util/stat_cell.hpp"
#include "util/time.hpp"

namespace ruru {

enum class HandshakeState : std::uint8_t {
  kAwaitSynAck = 0,  ///< SYN recorded
  kAwaitAck,         ///< SYN + SYN-ACK recorded
  kEstablished,      ///< handshake sample emitted; in-flow RTT tracking
};

/// Cold per-flow payload: read/written only after a probe verified the
/// slot, never during probing.
struct FlowData {
  Timestamp syn_time;            ///< first SYN at the tap
  Timestamp synack_time;         ///< SYN-ACK following that SYN
  std::uint32_t syn_seq = 0;     ///< ISN of the SYN (validates the SYN-ACK)
  std::uint32_t synack_seq = 0;  ///< ISN of the SYN-ACK (validates the ACK)
  HandshakeState state = HandshakeState::kAwaitSynAck;
  bool syn_forward = true;  ///< SYN travelled in canonical direction
};

/// Per-flow timestamp-ring bookkeeping for in-flow RTT (cold SoA, only
/// allocated when the feature is on).  Direction index convention: 0 =
/// canonical (FlowKey::forward), 1 = reverse.
struct TsFlowState {
  std::array<TsDirState, 2> dir{};
  /// Last in-flow sample emission per direction (rate limiting).
  std::array<std::int64_t, 2> last_emit_ns{kTsNever, kTsNever};
  /// Departure time of the previous note per direction (one-sided mode:
  /// consecutive TSval advances approximate sender pacing when no echo
  /// ever comes back).
  std::array<std::int64_t, 2> last_note_ns{kTsNever, kTsNever};
  /// Bit 0: canonical direction seen, bit 1: reverse seen.  One-sided
  /// samples are emitted only while exactly one bit is set.
  std::uint8_t seen_dirs = 0;
};

/// Single-writer cells (the owning worker thread): readable live by the
/// metrics snapshot thread without tearing.
struct FlowTableStats {
  StatCell inserts = 0;
  StatCell hits = 0;
  StatCell evictions_stale = 0;  ///< reclaimed abandoned handshakes (all paths)
  StatCell insert_failures = 0;  ///< probe window full of live entries
  StatCell erases = 0;
  StatCell tag_mismatches = 0;   ///< fingerprint matched, key/hash did not
  StatCell sweep_evictions = 0;  ///< evictions_stale subset found by sweep()
};

/// Observability hooks, installed by the pipeline before the worker
/// runs.  Default-constructed handles are inert no-ops.
struct FlowTableObs {
  /// Groups examined per keyed probe that engages the probe core.
  /// find()'s home-slot short-circuit is excluded: such hits examine
  /// exactly one slot by construction, so recording them adds a constant
  /// bucket-1 spike and a histogram touch to the hottest path for no
  /// distribution information.
  obs::HistogramHandle probe_groups;
  obs::HistogramHandle group_occupancy;  ///< full slots per swept group
};

class FlowTable {
 public:
  /// Slot handle: index into the table's arrays.  Valid until the slot
  /// is erased or reclaimed; kNoSlot means "not found / not inserted".
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = 0xFFFFFFFFu;

  /// Default probe window in slots (2 groups).
  static constexpr std::size_t kDefaultProbeWindow = 32;

  /// last_seen_ value of every dead slot (empty or tombstoned).  Any
  /// staleness compare against it fails, which is what lets the find()
  /// fast path skip the ctrl_ liveness byte entirely: a dead slot whose
  /// hot row still matches the probed key is rejected by `now.ns -
  /// last_seen` alone.  min()/2 keeps that subtraction overflow-free
  /// for any timestamp under 2^62 ns (~146 years), the same headroom
  /// the live-slot arithmetic already assumes.
  static constexpr std::int64_t kDeadNs = std::numeric_limits<std::int64_t>::min() / 2;

  /// `capacity` rounded up to a power of two (minimum one group).
  /// `stale_after`: entries not touched for this long may be reclaimed.
  /// `probe_window`: slots probed per lookup, rounded up to whole groups
  /// and clamped to capacity.  `ts_ring_entries`: per-flow, per-
  /// direction timestamp ring size for in-flow RTT — rounded up to a
  /// power of two; 0 (the default) allocates no ring storage and
  /// disables the ts_* accessors.
  explicit FlowTable(std::size_t capacity, Duration stale_after = Duration::from_sec(30.0),
                     std::size_t probe_window = kDefaultProbeWindow,
                     std::size_t ts_ring_entries = 0);

  /// Finds the live entry for `key`, or kNoSlot.  A verified match that
  /// went stale is reclaimed on the way (it is a dead handshake — do not
  /// resurrect it, and release its slot so it stops inflating size()).
  ///
  /// The home-slot fast path lives here in the header so callers inline
  /// the common case — a clean hit on the exact slot the hash maps to —
  /// down to two cache lines (hot row + last_seen) and the compares, no
  /// function call.  Liveness needs no ctrl_ read: dead slots (empty or
  /// tombstoned) carry the kDeadNs last_seen sentinel, so the staleness
  /// compare rejects them even when their hot row still holds the old
  /// key.  Everything else (displaced keys, stale entries, misses)
  /// takes find_slow().  (Two bigger inline bodies were tried and
  /// measured slower: inlining the whole probe, and an inline tag scan
  /// of successor slots — both inflate the caller loop past what they
  /// gain.)
  [[nodiscard]] Slot find(const FlowKey& key, std::uint32_t rss_hash, Timestamp now) {
    const std::size_t home = home_slot(mix(rss_hash));
    const HotSlot& hs = hot_[home];
    if (hs.rss_hash == rss_hash && hs.key == key.canonical &&
        now.ns - last_seen_[home] <= stale_after_.ns) [[likely]] {
      ++stats_.hits;
      return static_cast<Slot>(home);
    }
    return find_slow(key, rss_hash, now);
  }

  /// What a mutation-free classify() walk concluded about a key.
  enum class ClassifyKind : std::uint8_t {
    kMiss,  ///< no live entry in the window (see FlowClassify::stale_seen)
    kLive,  ///< live (non-stale) entry at `slot`
  };

  /// Provisional verdict of classify()/probe_batch(): everything find()
  /// would have learned and counted, carried aside so the caller can
  /// either replay the bookkeeping (apply_hit_stats / apply_miss_stats)
  /// when the verdict is still valid, or fall back to the real mutating
  /// lookup when it is not (`stale_seen`, or table mutations since the
  /// batch ran).
  struct FlowClassify {
    Slot slot = kNoSlot;  ///< live slot (kLive only)
    std::uint32_t groups = 0;
    std::uint16_t tag_mismatches = 0;
    ClassifyKind kind = ClassifyKind::kMiss;
    bool home_hit = false;   ///< resolved by the inline home-slot check
    bool stale_seen = false; ///< walk passed a verified-but-stale entry
  };

  /// Mutation-free twin of find(): same home-slot fast path, same probe
  /// walk, but nothing is reclaimed and nothing is counted — the walk's
  /// would-be bookkeeping is returned in the FlowClassify instead.  A
  /// kLive verdict is exactly "find() would return this slot";
  /// `stale_seen` means find() would additionally reclaim on the way, so
  /// the caller must re-run the mutating lookup to stay bit-identical.
  [[nodiscard]] FlowClassify classify(const FlowKey& key, std::uint32_t rss_hash,
                                      Timestamp now) const;

  /// Batched classify over burst lanes: issues every lane's group
  /// prefetch up front, then resolves the probes back-to-back over warm
  /// lines (memory-level parallelism — the scalar loop serializes one
  /// probe miss per packet).  `idx` selects `n_idx` lanes; `keys`, `rss`
  /// and `ts_ns` are full lane arrays indexed by `idx[k]`, and the
  /// verdict for lane i lands in `out[i]`.  kLive lanes additionally get
  /// their cold row (and timestamp rings, when enabled) prefetched for
  /// the resolve stage that follows.
  void probe_batch(const std::uint32_t* idx, std::size_t n_idx, const FlowKey* keys,
                   const std::uint32_t* rss, const std::int64_t* ts_ns,
                   FlowClassify* out) const;

  /// Replays the stats/histogram updates find() would have made for a
  /// still-valid kLive classification: the inline home hit counts only a
  /// hit; a scan hit also records the probe length and the fingerprint
  /// false positives, exactly as find_slow() does.
  void apply_hit_stats(const FlowClassify& c) {
    ++stats_.hits;
    if (!c.home_hit) {
      stats_.tag_mismatches += c.tag_mismatches;
      obs_.probe_groups.record(static_cast<std::int64_t>(c.groups));
    }
  }
  /// Replays find_slow()'s bookkeeping for a clean miss (no stale
  /// entries seen — those invalidate the classification instead).
  void apply_miss_stats(const FlowClassify& c) {
    stats_.tag_mismatches += c.tag_mismatches;
    obs_.probe_groups.record(static_cast<std::int64_t>(c.groups));
  }

  /// Finds or inserts an entry for `key`.  On insert the slot's payload
  /// is default-initialized, `last_seen` is set to `now` and `inserted`
  /// reports true.  Returns kNoSlot when the probe window has no free or
  /// reclaimable slot (counted as insert_failure).
  Slot find_or_insert(const FlowKey& key, std::uint32_t rss_hash, Timestamp now, bool& inserted);

  /// Releases the slot (after a sample is emitted or on RST).  The slot
  /// becomes a tombstone; double-erase is harmless.
  void erase(Slot slot);

  /// Warms the control group and first hot slot of `rss_hash`'s home
  /// group — issue one lookahead ahead of the probe that will use it.
  void prefetch(std::uint32_t rss_hash) const {
    const std::size_t group = home_group(mix(rss_hash));
    __builtin_prefetch(ctrl_.data() + group * kFlowGroupWidth, 0 /*read*/, 3);
    __builtin_prefetch(hot_.data() + group * kFlowGroupWidth, 0 /*read*/, 3);
  }

  /// The batched-probe variant: warms exactly what classify()'s home
  /// check reads — the ctrl group, the home slot's *own* hot line (each
  /// HotSlot is line-aligned, so the group-base line prefetch() issues
  /// covers the home slot only 1-in-kFlowGroupWidth times), and the home
  /// slot's last_seen word, which the freshness compare and touch() both
  /// hit.  probe_batch() fans this across the burst before any lane
  /// resolves.
  void prefetch_probe(std::uint32_t rss_hash) const {
    const std::uint64_t h = mix(rss_hash);
    const std::size_t home = home_slot(h);
    __builtin_prefetch(ctrl_.data() + home_group(h) * kFlowGroupWidth, 0 /*read*/, 3);
    __builtin_prefetch(hot_.data() + home, 0 /*read*/, 3);
    // Write intent: a live lane's resolve stage calls touch(), so taking
    // the line exclusive up front saves the shared->owned upgrade the
    // store would otherwise wait on.
    __builtin_prefetch(last_seen_.data() + home, 1 /*write*/, 3);
  }

  /// Incremental staleness sweep: examines up to `max_groups` groups
  /// from an internal cursor, tombstoning entries idle longer than
  /// stale_after.  Called with a few groups per RX burst it retires
  /// abandoned handshakes without a per-probe staleness check or a
  /// stop-the-world GC pass.  Returns entries reclaimed.
  std::size_t sweep(Timestamp now, std::size_t max_groups);

  // --- slot accessors (slot must be a live handle) ---
  [[nodiscard]] FlowData& data(Slot slot) { return cold_[slot]; }
  [[nodiscard]] const FlowData& data(Slot slot) const { return cold_[slot]; }
  [[nodiscard]] const FiveTuple& canonical(Slot slot) const { return hot_[slot].key; }
  void touch(Slot slot, Timestamp now) { last_seen_[slot] = now.ns; }

  // --- in-flow timestamp rings (valid only when built with ts_ring_entries) ---
  /// `dir`: 0 = canonical direction's notes, 1 = reverse's.  SoA lanes:
  /// both directions' vals sit contiguously per slot (one cache line for
  /// ring sizes <= 8), times likewise.
  [[nodiscard]] TsRingRef ts_ring(Slot slot, unsigned dir) {
    const std::size_t off = (static_cast<std::size_t>(slot) * 2 + dir) * ts_entries_;
    return {{ts_vals_.data() + off, ts_entries_}, {ts_times_.data() + off, ts_entries_}};
  }
  [[nodiscard]] TsFlowState& ts_state(Slot slot) { return ts_state_[slot]; }
  /// Warms the lanes a match is about to scan — issue between the find()
  /// and the option extraction so the lines stream in behind the probe.
  /// The vals lane (both directions) and the state; the times lane is
  /// only dereferenced on a hit or a note, and its store misses hide in
  /// the store buffer.
  void ts_prefetch(Slot slot) const {
    __builtin_prefetch(ts_vals_.data() + static_cast<std::size_t>(slot) * 2 * ts_entries_,
                       1 /*write*/, 3);
    __builtin_prefetch(ts_state_.data() + slot, 1 /*write*/, 3);
  }

  [[nodiscard]] std::size_t capacity() const { return ctrl_.size(); }
  [[nodiscard]] std::size_t size() const { return live_.load(); }
  [[nodiscard]] std::size_t probe_window() const { return window_groups_ * kFlowGroupWidth; }
  [[nodiscard]] const FlowTableStats& stats() const { return stats_; }

  /// Install before the table is used (not thread-safe afterwards).
  void set_obs(FlowTableObs obs) { obs_ = obs; }

 private:
  /// Hot probe row: everything a verified match needs to read, one cache
  /// line per slot.  last_seen lives in its own array so the sweep scans
  /// ctrl_ + last_seen_ sequentially without dragging keys through cache.
  struct alignas(64) HotSlot {
    FiveTuple key;
    std::uint32_t rss_hash = 0;
  };

  /// kClassify is mutation- and stat-free: the walk's would-be
  /// bookkeeping (fingerprint false positives, verified-but-stale
  /// encounters) is returned in the ProbeResult so the caller can replay
  /// or invalidate it later.
  enum class ProbeMode { kFind, kInsert, kClassify };

  struct ProbeResult {
    Slot match = kNoSlot;
    Slot reuse = kNoSlot;  ///< first empty/tombstone in probe order (kInsert)
    std::uint32_t groups = 0;
    std::uint16_t mismatches = 0;  ///< kClassify: tag matched, key/hash did not
    bool stale_seen = false;       ///< kClassify: walk passed a stale verified match
  };

  /// The RSS hash indexes the table, as in the paper.  Spread its
  /// entropy with a 64-bit mix (RSS hashes of flows on one queue share
  /// low bits with the queue count).
  [[nodiscard]] static std::uint64_t mix(std::uint32_t rss_hash) {
    std::uint64_t h = rss_hash;
    h *= 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
    return h;
  }
  /// One 64-bit fold of an address (v4: the word; v6: both halves mixed).
  [[nodiscard]] static std::uint64_t fold_ip(const IpAddress& a);
  /// Control tag: a 7-bit fingerprint of the *canonical five-tuple*, not
  /// the RSS hash.  Flows that share an RSS hash share a home group and
  /// a probe window by design, so an RSS-derived tag would match every
  /// slot of the pile and force a hot-row verification per resident
  /// flow; the tuple tag keeps pile members apart at the control byte.
  /// Word folds + two multiplies — no byte loop (FlowKey::hash is FNV
  /// and too slow for a per-probe path).
  [[nodiscard]] static std::uint8_t tuple_tag(const FiveTuple& t) {
    std::uint64_t h = fold_ip(t.src) * 0xff51afd7ed558ccdULL;
    h ^= fold_ip(t.dst) * 0xc4ceb9fe1a85ec53ULL;
    h ^= (static_cast<std::uint64_t>(t.src_port) << 32) |
         (static_cast<std::uint64_t>(t.dst_port) << 16) | t.protocol;
    h *= 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
    return static_cast<std::uint8_t>((h >> 25) & 0x7F);  // 7 bits, 0x00..0x7F
  }
  [[nodiscard]] std::size_t home_group(std::uint64_t h) const {
    return (static_cast<std::size_t>(h) & slot_mask_) / kFlowGroupWidth;
  }
  /// Exact slot `h` lands on — the first slot examined, inside the home
  /// group.  Inserts prefer it when it is free and lookups short-circuit
  /// on it, so in the common no-collision case a hit costs one control
  /// byte compare and one hot row, no group scan at all.
  [[nodiscard]] std::size_t home_slot(std::uint64_t h) const {
    return static_cast<std::size_t>(h) & slot_mask_;
  }

  template <ProbeMode Mode>
  ProbeResult probe(const FiveTuple& key, std::uint32_t rss_hash, Timestamp now);

  /// Full probe behind find()'s inline home-slot fast path.
  [[nodiscard]] Slot find_slow(const FlowKey& key, std::uint32_t rss_hash, Timestamp now);

  /// Tombstones every stale entry in `rss_hash`'s probe window; returns
  /// the first reclaimed slot (insert fallback when the window has no
  /// empty or tombstone — the incremental sweep simply has not reached
  /// these groups yet).
  Slot reclaim_window(std::uint32_t rss_hash, Timestamp now);

  void reclaim(Slot slot) {
    ctrl_[slot] = kCtrlTombstone;
    last_seen_[slot] = kDeadNs;  // keep the ctrl-free fast path honest
    --live_;
    ++stats_.evictions_stale;
  }

  std::vector<std::uint8_t> ctrl_;     ///< tag | empty | tombstone, per slot
  std::vector<HotSlot> hot_;           ///< probe verification rows
  std::vector<std::int64_t> last_seen_;  ///< Timestamp::ns, sweep-scanned
  std::vector<FlowData> cold_;         ///< handshake payload
  std::vector<std::uint32_t> ts_vals_;   ///< TSval lanes, 2 * ts_entries_ per slot
  std::vector<std::int64_t> ts_times_;   ///< departure lanes, same geometry
  std::vector<TsFlowState> ts_state_;    ///< one per slot (cold)
  std::size_t ts_entries_ = 0;         ///< ring entries per direction (0 = off)
  std::size_t slot_mask_;              ///< capacity - 1
  std::size_t group_mask_;             ///< capacity/16 - 1
  std::size_t window_groups_;          ///< probe window in groups
  std::size_t sweep_cursor_ = 0;       ///< next group sweep() examines
  Duration stale_after_;
  StatCell live_ = 0;  ///< occupancy gauge, snapshot-thread readable
  FlowTableStats stats_;
  FlowTableObs obs_;
};

}  // namespace ruru
