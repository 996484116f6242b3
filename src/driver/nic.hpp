#pragma once
// SimNic — a multi-queue, poll-mode NIC port (simdpdk analogue of an
// rte_ethdev in RX-only tap mode).
//
// Frames are injected by a single producer (the traffic replay); the NIC
// stamps an RX timestamp, computes the configured RSS hash over the
// TCP/IP 4-tuple, and enqueues the mbuf on queue `hash % nb_queues`.
// Worker lcores drain queues with rx_burst(), exactly like rte_eth_rx_burst.
//
// Two producer topologies are supported, mutually exclusive per run:
//  * whole-port single producer — inject()/inject_burst() from one
//    thread, distributing across all queues (the original contract);
//  * sharded lanes — one producer thread per queue calling
//    inject_shard(q, ...), each lane feeding only its own SPSC ring.
//    The replayer partitions frames by the same Toeplitz hash the NIC
//    would compute, so lane q carries exactly the frames queue q would
//    have received — per-queue streams are bit-identical to the
//    single-producer path, and no ring ever sees two producers.
// Both run one enqueue body over their own producer state (stats shard,
// staging, mbuf cache), so N lanes never write one cell or one buffer;
// stats_totals() merges the shards for reporting.
//
// Mbuf recycling, DPDK style: no lock in steady state.  Each producer
// allocates from a cache it owns.  A worker hands each processed burst
// back on its queue's SPSC recycle ring (recycle(): one release store
// per burst), and a producer whose cache runs dry drains the recycle
// rings of the queues it feeds — the whole-port producer every ring,
// lane q ring q only — before it falls back to the pool's locked free
// list.  Each recycle ring thus has one producer (queue q's worker) and
// one consumer (whichever topology is injecting).
//
// Drop accounting mirrors hardware: mempool exhaustion and full RX rings
// are counted, never blocked on — a latency tap must not apply
// backpressure to the wire.
//
// Rx interrupts, futex style: each queue has a Doorbell that both
// producer topologies ring after a push, so a worker that found its
// queue idle can park in wait_rx() instead of spinning (DPDK
// l3fwd-power's rx-interrupt mode).  With no worker parked, a ring is
// one RMW per queue per burst and no syscall.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "driver/mempool.hpp"
#include "driver/toeplitz.hpp"
#include "util/doorbell.hpp"
#include "util/spsc_ring.hpp"
#include "util/stat_cell.hpp"
#include "util/time.hpp"

namespace ruru {

/// Single-writer cells (the injecting thread): readable live by the
/// metrics snapshot thread without tearing.
struct NicStats {
  StatCell rx_packets = 0;
  StatCell rx_bytes = 0;
  StatCell dropped_no_mbuf = 0;
  StatCell dropped_queue_full = 0;
  StatCell dropped_oversize = 0;
  /// Sharded injection only: frames handed to a lane whose RSS hash maps
  /// to a different queue (a replayer partition bug, never silent).
  StatCell dropped_misrouted = 0;
};

struct NicConfig {
  std::uint16_t num_queues = 4;
  std::size_t queue_depth = 4096;
  RssKey rss_key = symmetric_rss_key();
  std::uint16_t port_id = 0;
  /// Flight-recorder sampling rate: flows whose RSS hash selects under
  /// obs::trace_id_for(hash, trace_sample_n) get a trace id + TSC
  /// ingest stamp on their mbufs.  0 = off (no per-packet cost).
  std::uint32_t trace_sample_n = 0;
};

/// One frame of an RX burst: the wire bytes plus their capture time.
struct RxFrame {
  std::span<const std::uint8_t> data;
  Timestamp rx_time;
};

class SimNic {
 public:
  /// Frames per rx burst: what a worker polls at once, and what a
  /// cold refill takes from the pool.
  static constexpr std::size_t kRxBurst = 32;
  /// Free mbufs a producer's cache holds (rte_mempool's largest
  /// per-lcore cache): 16 bursts between two drains of the recycle rings.
  static constexpr std::size_t kCacheSize = 16 * kRxBurst;

  SimNic(const NicConfig& config, Mempool& pool);

  SimNic(const SimNic&) = delete;
  SimNic& operator=(const SimNic&) = delete;

  /// RX path for one frame: a one-frame inject_burst().  Single-
  /// producer: call from one thread only. Returns true when the frame
  /// was queued (false -> counted in stats as a drop).
  bool inject(std::span<const std::uint8_t> frame, Timestamp rx_time);

  /// Batched RX path: copy each frame into an mbuf from the producer's
  /// cache, hash, timestamp, and stage it per destination queue, then
  /// publish each queue's run with ONE SpscRing::push_burst (one release
  /// store per queue per burst instead of one per frame).  Single-
  /// producer, like inject().  Returns the number of frames queued; when
  /// `queued` is non-null it must have `frames.size()` slots and receives
  /// a per-frame success flag (so a lossless replayer can retry exactly
  /// the failures).
  std::size_t inject_burst(std::span<const RxFrame> frames, bool* queued = nullptr);

  /// Sharded RX path: queue `queue`'s own producer lane injects a burst
  /// of frames that all hash to that queue (the replayer pre-partitions
  /// by queue_for()).  Same body as inject_burst() over the lane's own
  /// cache, which refills from queue `queue`'s recycle ring only; a frame
  /// whose hash maps to a different queue is counted as a lane misroute
  /// and dropped (it would corrupt the symmetric-RSS guarantee that both
  /// directions of a flow share one worker).
  /// Contract: at most one producer thread per lane, and lanes must not
  /// run concurrently with whole-port inject()/inject_burst().
  /// Returns frames queued; `queued` (optional, frames.size() slots)
  /// receives per-frame success.
  std::size_t inject_shard(std::uint16_t queue, std::span<const RxFrame> frames,
                           bool* queued = nullptr);

  /// Poll up to `out.size()` mbufs from `queue` (rte_eth_rx_burst).
  /// Safe to call concurrently across *different* queues.
  std::size_t rx_burst(std::uint16_t queue, std::span<MbufPtr> out);

  /// Hand a processed burst back: one push_burst onto `queue`'s recycle
  /// ring, which its producer drains into its cache.  What a full ring
  /// cannot take goes to the pool's locked free list, so this never
  /// blocks and never leaks.  Only `queue`'s one consumer may call it;
  /// every handle in `burst` is left empty.
  void recycle(std::uint16_t queue, std::span<MbufPtr> burst);

  /// Park `queue`'s consumer until a producer pushes to that queue or
  /// `timeout` passes; returns at once (kReady) when the queue already
  /// holds frames.  Only the queue's one consumer may call it.
  ParkResult wait_rx(std::uint16_t queue, std::chrono::nanoseconds timeout);

  [[nodiscard]] std::uint16_t num_queues() const { return config_.num_queues; }
  /// Whole-port producer shard only (inject()/inject_burst() callers).
  /// Sharded-lane traffic lands in lane_stats(); use stats_totals() for
  /// a topology-independent view.
  [[nodiscard]] const NicStats& stats() const { return port_.stats; }
  /// Stats shard written only by queue `queue`'s producer lane.
  [[nodiscard]] const NicStats& lane_stats(std::uint16_t queue) const {
    return lanes_[queue]->stats;
  }
  /// Port shard + every lane shard, merged (relaxed loads — safe from
  /// the metrics snapshot thread).
  [[nodiscard]] NicStats stats_totals() const;
  [[nodiscard]] std::size_t queue_occupancy(std::uint16_t queue) const;

  /// RSS hash the NIC would assign to this frame (exposed for tests).
  [[nodiscard]] std::uint32_t hash_frame(std::span<const std::uint8_t> frame) const;
  /// Queue the RSS hash of `frame` maps to — the replayer's partition
  /// function for sharded injection.
  [[nodiscard]] std::uint16_t queue_for(std::span<const std::uint8_t> frame) const {
    return static_cast<std::uint16_t>(hash_frame(frame) % config_.num_queues);
  }

 private:
  /// One RX queue: the ring, the recycle ring its worker hands bursts
  /// back on, and the doorbell its producer rings after a push.  The
  /// recycle ring holds two rings' worth, so a worker draining a full
  /// queue while its producer has stopped refilling still fits.
  struct RxQueue {
    explicit RxQueue(std::size_t depth) : ring(depth), recycle(2 * depth) {}
    SpscRing<MbufPtr> ring;
    SpscRing<MbufPtr> recycle;
    Doorbell bell;
  };

  /// One producer's state — the whole port's, or one lane's — touched
  /// only by that producer's thread (the stats cells are also read by
  /// the snapshot thread).  It feeds, and drains the recycle rings of,
  /// queues [first_queue, first_queue + staged.size()).
  struct Producer {
    Producer(std::uint16_t first, std::uint16_t count);
    NicStats stats;
    std::uint16_t first_queue;
    /// Per destination queue: staged mbufs with the originating frame
    /// index alongside each (so a partial push can report exactly which
    /// frames dropped).  Reused across bursts.
    std::vector<std::vector<MbufPtr>> staged;
    std::vector<std::vector<std::uint32_t>> staged_frames;
    /// Free mbufs owned by this producer, LIFO: cache[0, cached).
    std::size_t cached = 0;
    std::array<MbufPtr, kCacheSize> cache;
  };

  /// The enqueue body behind inject_burst() and inject_shard().
  std::size_t enqueue(Producer& p, std::span<const RxFrame> frames, bool* queued);
  /// Refills an empty cache: the producer's recycle rings first, the
  /// pool's locked free list only when they are empty too.
  void refill(Producer& p);

  NicConfig config_;
  Mempool& pool_;
  ToeplitzTable rss_table_;  ///< derived from config_.rss_key once
  std::vector<std::unique_ptr<RxQueue>> queues_;
  Producer port_;
  /// Sharded-injection producers, indexed by queue.
  std::vector<std::unique_ptr<Producer>> lanes_;
};

}  // namespace ruru
