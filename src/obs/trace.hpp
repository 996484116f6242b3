#pragma once
// Flight-recorder tracing: per-stage ring buffers of fixed-size
// binary trace events, a 1-in-N packet-lifecycle sampler, and a
// Chrome trace_event JSON exporter.
//
// The design constraint is the untraced hot path: workers poll tens
// of thousands of bursts per second, so emission must cost nothing
// when tracing is off and a handful of relaxed stores when it is on.
// Two runtime mechanisms stack to get there:
//
//   1. Per-stage: stages hold a TraceHandle, an inert pointer-sized
//      handle (same idiom as obs::HistogramHandle).  A default-
//      constructed handle compiles to one null check.
//   2. Per-packet: trace ids are a pure function of the RSS
//      hash (`trace_id_for`), assigned at the NIC and re-derivable at
//      any stage from data already in flight — so the wire codec is
//      untouched and the per-packet test is one compare against an
//      id that is almost always zero.
//
// Each ring is single-producer by contract (one ring per worker, per
// enrichment thread); the reader (watchdog / exporter) snapshots
// without stopping the writer and tolerates losing at most the single
// oldest slot to a concurrent overwrite.  The one multi-producer ring
// (the TSDB sink, called under the route-cache mutex's siblings) uses
// an internal mutex — correctness over cleverness for a path that
// fires only for sampled flows.

#include <cstddef>
#include <cstdint>

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ruru::obs {

/// Pipeline stage a span belongs to.  Order mirrors the packet's
/// journey; the exporter maps each to a chrome://tracing track.
enum class TraceStage : std::uint8_t {
  kNic = 0,
  kWorker = 1,
  kFlow = 2,
  kBus = 3,
  kEnrich = 4,
  kTsdb = 5,
  kControl = 6,
};

enum class TraceKind : std::uint8_t {
  kSpan = 0,     // has a duration
  kInstant = 1,  // point event
};

[[nodiscard]] const char* to_string(TraceStage s);

/// One fixed-size trace event, 24 bytes.  Encoded into three 64-bit
/// words so ring slots can be copied with relaxed atomic loads and a
/// torn slot decodes to garbage rather than UB:
///   w0 = ts_ns
///   w1 = trace_id << 32 | dur_ns
///   w2 = arg << 32 | shard << 16 | kind << 8 | stage
struct TraceEvent {
  std::int64_t ts_ns = 0;     // TSC-clock nanoseconds (steady epoch)
  std::uint32_t trace_id = 0; // 0 = stage-level event, not per-packet
  std::uint32_t dur_ns = 0;   // span length, saturated at ~4.29s
  std::uint32_t arg = 0;      // stage-defined (queue id, batch size, ...)
  TraceStage stage = TraceStage::kControl;
  TraceKind kind = TraceKind::kInstant;
  std::uint16_t shard = 0;    // worker / enricher index

  [[nodiscard]] std::uint64_t word0() const { return static_cast<std::uint64_t>(ts_ns); }
  [[nodiscard]] std::uint64_t word1() const {
    return (static_cast<std::uint64_t>(trace_id) << 32) | dur_ns;
  }
  [[nodiscard]] std::uint64_t word2() const {
    return (static_cast<std::uint64_t>(arg) << 32) |
           (static_cast<std::uint64_t>(shard) << 16) |
           (static_cast<std::uint64_t>(kind) << 8) | static_cast<std::uint64_t>(stage);
  }

  static TraceEvent from_words(std::uint64_t w0, std::uint64_t w1, std::uint64_t w2) {
    TraceEvent e;
    e.ts_ns = static_cast<std::int64_t>(w0);
    e.trace_id = static_cast<std::uint32_t>(w1 >> 32);
    e.dur_ns = static_cast<std::uint32_t>(w1);
    e.arg = static_cast<std::uint32_t>(w2 >> 32);
    e.shard = static_cast<std::uint16_t>(w2 >> 16);
    e.kind = static_cast<TraceKind>(static_cast<std::uint8_t>(w2 >> 8));
    e.stage = static_cast<TraceStage>(static_cast<std::uint8_t>(w2));
    return e;
  }
};

/// 1-in-N flow sampler as a pure function of the RSS hash.  Both
/// directions of a flow share the hash (symmetric Toeplitz key), so
/// both map to the same trace id, and every stage that still has the
/// hash can re-derive the id without widening the wire format.
/// Returns 0 (untraced) unless sampling is on and the hash selects.
[[nodiscard]] inline std::uint32_t trace_id_for(std::uint32_t rss_hash,
                                                std::uint32_t sample_n) {
  if (sample_n == 0 || rss_hash == 0) return 0;
  return rss_hash % sample_n == 0 ? rss_hash : 0;
}

/// Fixed-capacity overwrite-at-capacity event ring.  Writer side is
/// wait-free (three relaxed stores + one release store); the reader
/// snapshots concurrently and is guaranteed the newest capacity-1
/// events intact — the single oldest slot may be dropped if the
/// writer is overwriting it mid-copy (see snapshot() for the proof).
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity);

  /// Single-producer emit.  Callers on shared rings must use
  /// emit_locked() instead.
  void emit(const TraceEvent& e) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[h & mask_];
    s.w0.store(e.word0(), std::memory_order_relaxed);
    s.w1.store(e.word1(), std::memory_order_relaxed);
    s.w2.store(e.word2(), std::memory_order_relaxed);
    head_.store(h + 1, std::memory_order_release);
  }

  /// Serialized emit for the rare multi-producer rings (TSDB sink).
  void emit_locked(const TraceEvent& e) {
    std::lock_guard<std::mutex> lock(emit_mu_);
    emit(e);
  }

  /// Replaces `out` with the most recent events, oldest first, without
  /// stopping the writer (capacity of a reused vector is retained, so
  /// a polling caller settles into zero allocations).
  /// Guarantee: every event with generation index in
  /// [h2 - capacity + 1, h1) is intact, where h1/h2 are the head
  /// before/after the copy — the writer only reuses slot g after
  /// publishing head = g + capacity, so seeing h2 < g + capacity
  /// proves slot g was not being rewritten during the copy.
  void snapshot(std::vector<TraceEvent>& out) const;

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }
  [[nodiscard]] std::uint64_t emitted() const {
    return head_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> w0{0};
    std::atomic<std::uint64_t> w1{0};
    std::atomic<std::uint64_t> w2{0};
  };

  std::unique_ptr<Slot[]> slots_;
  std::uint64_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
  std::mutex emit_mu_;  // emit_locked() only; plain emit() never touches it
};

/// Inert-handle wrapper a stage stores by value.  Default-constructed
/// every call is a no-op; attached, it forwards to the ring.  `shared`
/// selects the locked emit path.
class TraceHandle {
 public:
  TraceHandle() = default;
  explicit TraceHandle(TraceRing* ring, bool shared = false)
      : ring_(ring), shared_(shared) {}

  [[nodiscard]] bool attached() const { return ring_ != nullptr; }

  // Emission is const: it writes through the ring pointer, never to the
  // handle itself, so stages may hold the handle in const obs structs.
  void span(TraceStage stage, std::uint32_t trace_id, std::int64_t ts_ns,
            std::int64_t dur_ns, std::uint32_t arg = 0, std::uint16_t shard = 0) const {
    if (ring_ == nullptr) return;
    TraceEvent e;
    e.ts_ns = ts_ns;
    e.trace_id = trace_id;
    e.dur_ns = saturate_dur(dur_ns);
    e.arg = arg;
    e.stage = stage;
    e.kind = TraceKind::kSpan;
    e.shard = shard;
    if (shared_) {
      ring_->emit_locked(e);
    } else {
      ring_->emit(e);
    }
  }

  void instant(TraceStage stage, std::uint32_t trace_id, std::int64_t ts_ns,
               std::uint32_t arg = 0, std::uint16_t shard = 0) const {
    if (ring_ == nullptr) return;
    TraceEvent e;
    e.ts_ns = ts_ns;
    e.trace_id = trace_id;
    e.arg = arg;
    e.stage = stage;
    e.kind = TraceKind::kInstant;
    e.shard = shard;
    if (shared_) {
      ring_->emit_locked(e);
    } else {
      ring_->emit(e);
    }
  }

 private:
  static std::uint32_t saturate_dur(std::int64_t dur_ns) {
    if (dur_ns <= 0) return 0;
    if (dur_ns > 0xFFFFFFFFll) return 0xFFFFFFFFu;
    return static_cast<std::uint32_t>(dur_ns);
  }

  TraceRing* ring_ = nullptr;
  bool shared_ = false;
};

struct TracerConfig {
  std::uint32_t sample_n = 0;      // 0 = packet-lifecycle sampling off
  std::size_t ring_capacity = 4096;  // events per ring, rounded up to pow2
};

/// Owns the rings and hands out handles.  Registration (pipeline
/// construction) is mutex-guarded; the emit path never touches the
/// tracer again — handles point straight at their ring.
class Tracer {
 public:
  Tracer() = default;

  void configure(const TracerConfig& config);
  [[nodiscard]] bool enabled() const { return config_.sample_n != 0; }
  [[nodiscard]] std::uint32_t sample_n() const { return config_.sample_n; }

  [[nodiscard]] std::uint32_t flow_trace_id(std::uint32_t rss_hash) const {
    return trace_id_for(rss_hash, config_.sample_n);
  }

  /// Registers (or returns the existing) ring under `name` and hands
  /// back a single-producer handle.  Inert handle when tracing is
  /// disabled, so stages can wire unconditionally.
  TraceHandle ring(const std::string& name);
  /// Same, but the handle serializes emits — for the few
  /// multi-producer call sites.
  TraceHandle shared_ring(const std::string& name);

  /// Snapshot of every ring, oldest event first within each.
  void snapshot_all(
      std::vector<std::pair<std::string, std::vector<TraceEvent>>>& out) const;

  /// Chrome trace_event JSON (the "traceEvents" array form), loadable
  /// in chrome://tracing or ui.perfetto.dev.  Spans become "X"
  /// complete events on one track per ring; sampled packet lifecycles
  /// additionally get "s"/"t"/"f" flow events keyed on the trace id so
  /// the UI draws the nic -> ... -> tsdb arrows.
  [[nodiscard]] std::string export_chrome_json() const;
  bool export_chrome_json_file(const std::string& path) const;

  [[nodiscard]] std::uint64_t events_emitted() const;

 private:
  TraceHandle ring_impl(const std::string& name, bool shared);

  TracerConfig config_;
  mutable std::mutex mu_;  // guards rings_ registration + snapshot iteration
  std::vector<std::pair<std::string, std::unique_ptr<TraceRing>>> rings_;
};

}  // namespace ruru::obs
