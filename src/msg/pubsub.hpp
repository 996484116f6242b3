#pragma once
// In-process topic pub/sub with high-water-mark drop semantics.
//
// Mirrors ZeroMQ PUB/SUB behaviour the pipeline relies on:
//  * a publisher never blocks — a subscriber whose queue is at its HWM
//    loses the message (the tap must not backpressure the capture path);
//  * subscription is by topic prefix;
//  * delivery is per-subscriber FIFO (per publisher lane, see below).
//
// The publish path is lock-free end to end: the subscriber list is an
// immutable atomic snapshot (copy-on-subscribe, never copy-on-publish),
// per-subscription queues are lock-free rings (BusQueue) and all
// counters are atomics.  A publish acquires no mutex regardless of
// subscriber count or contention.
//
// Fan-in lanes: with N worker lcores all flushing latency batches into
// one subscriber, a single MPMC ring makes every worker CAS-contend on
// one ticket cursor.  A PubSocket constructed with `fanin_lanes = N`
// gives every subscription one queue list: N per-lane queues, then the
// shared queue last.  Worker w publishes via publish_lane(w, ...) and is
// the ONLY producer on lane w's ring, so its ticket CAS never loses —
// fan-in scales with worker count instead of serialising on one cursor.
// Any lane past the list's lanes lands on the shared queue; publish()
// (alerts, control-plane traffic) is exactly such a lane.  Consumers
// round-robin their queues (fair, MPMC-safe for a consumer pool), which
// preserves per-worker FIFO ordering; cross-lane order is unspecified,
// exactly like N ZeroMQ publishers into one SUB.  Every receive — plain
// or sharded, blocking or not — runs the one sharded receive body; a
// plain receive is shard 0 of 1.
//
// A blocking receive that finds its queues empty spins a few polls, then
// parks on the subscription's Doorbell (util/doorbell.hpp).  Every
// accepted offer and close() ring it; with no receiver parked that is
// one RMW and no syscall.  The wake is wake-all, so sharded receivers
// and an unsharded pool share one doorbell and each re-checks its own
// queues.
//
// Counters are denominated in *samples*, not messages: publish() takes
// the number of samples the message carries (a batched latency frame
// carries many), so delivered/dropped/published stay truthful when the
// feed batches and an HWM drop loses a whole batch.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "msg/bus_queue.hpp"
#include "msg/message.hpp"
#include "util/doorbell.hpp"

namespace ruru {

class Subscription {
 public:
  /// `lanes` per-publisher-lane queues, then the shared queue; each gets
  /// the full `hwm` (the HWM bounds per-worker backlog, so one stalled
  /// consumer loses batches lane by lane).
  Subscription(std::string topic_prefix, std::size_t hwm, std::size_t lanes = 0)
      : prefix_(std::move(topic_prefix)) {
    queues_.reserve(lanes + 1);
    for (std::size_t i = 0; i <= lanes; ++i) {
      queues_.push_back(std::make_unique<BusQueue<Message>>(hwm));
    }
  }

  /// Blocking receive over every queue; nullopt after close() with every
  /// queue drained.  MPMC-safe: a consumer pool can share one
  /// subscription.  Shard 0 of 1.
  std::optional<Message> recv() { return recv_shard(0, 1); }
  /// Non-blocking receive over every queue (round-robin start for
  /// fairness).  Shard 0 of 1.
  std::optional<Message> try_recv() { return try_recv_shard(0, 1); }

  /// Sharded receive for a consumer pool: worker `shard` of `nshards`
  /// consumes only the lanes where lane % nshards == shard (shard 0
  /// also drains the shared queue).  Each lane then has exactly one
  /// consumer, so lane pops are uncontended SPSC instead of MPMC, and a
  /// flow's samples — RSS-pinned to one publisher lane — are handled by
  /// one worker in publish order instead of being scattered across the
  /// pool.  The blocking form returns nullopt once this shard's queues
  /// are closed and drained (at once for a shard that owns none).  A
  /// lane-less subscription has nothing to shard: every shard receives
  /// as shard 0 of 1.
  std::optional<Message> recv_shard(std::size_t shard, std::size_t nshards);
  std::optional<Message> try_recv_shard(std::size_t shard, std::size_t nshards);
  /// The blocking receive's idle step: sleep on the doorbell until a
  /// message lands on one of the shard's queues or the last of them
  /// closes, or `timeout` passes; kReady at once when either already
  /// holds.  recv_shard() waits kParkTimeout at a time.
  ParkResult wait_shard(std::size_t shard, std::size_t nshards,
                        std::chrono::nanoseconds timeout);

  [[nodiscard]] const std::string& prefix() const { return prefix_; }
  [[nodiscard]] std::size_t lanes() const { return queues_.size() - 1; }
  /// Samples lost to the HWM (whole batches count all their samples).
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Samples accepted into the queue.
  [[nodiscard]] std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  /// Queued messages (not samples) awaiting receive, across all lanes.
  [[nodiscard]] std::size_t pending() const;
  /// Times a receiver slept on the doorbell (any receiver).
  [[nodiscard]] std::uint64_t parks() const { return parks_.load(std::memory_order_relaxed); }

  /// Closes every queue and wakes parked receivers at once.
  void close();

 private:
  friend class PubSocket;
  /// Lands `m` on lane `lane`'s queue (single producer per lane by
  /// contract -> uncontended ticket CAS).  A lane past this
  /// subscription's lanes lands on the shared queue, so publish_lane is
  /// safe against mixed-topology subscribers.  `samples`: how many
  /// samples `m` carries (counter weight).  Shares frames — no byte
  /// copy.  Mutex-free.
  bool offer(std::size_t lane, const Message& m, std::uint64_t samples) {
    const bool ok = queues_[std::min(lane, lanes())]->try_push(m);
    (ok ? delivered_ : dropped_).fetch_add(samples, std::memory_order_relaxed);
    if (ok) bell_.ring();
    return ok;
  }

  /// The queues a shard owns, at a glance: whether any holds a message,
  /// and whether all are closed.  Closed and not pending is drained:
  /// nothing more can arrive for the shard.
  struct Scan {
    bool pending = false;
    bool closed = true;
  };
  [[nodiscard]] Scan scan(std::size_t shard, std::size_t nshards) const;

  std::string prefix_;
  /// Per-publisher-lane queues, then the shared queue; unique_ptr because
  /// BusQueue is pinned.
  std::vector<std::unique_ptr<BusQueue<Message>>> queues_;
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  /// Round-robin receive cursor (fairness across queues, shared by a
  /// consumer pool).
  std::atomic<std::uint64_t> rr_{0};
  std::atomic<std::uint64_t> parks_{0};
  /// Where idle blocking receivers park; offer() and close() ring it.
  Doorbell bell_;
};

class PubSocket {
 public:
  /// `fanin_lanes`: per-lane queues every future subscription gets (one
  /// per publishing worker; 0 = classic single-queue subscriptions).
  explicit PubSocket(std::size_t default_hwm = 4096, std::size_t fanin_lanes = 0)
      : default_hwm_(default_hwm), fanin_lanes_(fanin_lanes) {}
  ~PubSocket();

  PubSocket(const PubSocket&) = delete;
  PubSocket& operator=(const PubSocket&) = delete;

  /// New subscription for topics starting with `topic_prefix` (empty =
  /// everything). Thread-safe, including against concurrent publishers:
  /// the list is append-only and published with a release CAS.
  std::shared_ptr<Subscription> subscribe(std::string topic_prefix, std::size_t hwm = 0);

  /// Fan out to all matching subscriptions' shared queues; never blocks
  /// and acquires no mutex.  Any number of threads may publish.
  /// `samples` is the number of samples the message carries (weights the
  /// delivered/dropped/published counters). Returns the number of
  /// subscribers that accepted the message.
  std::size_t publish(const Message& message, std::uint64_t samples = 1) {
    return publish_lane(std::numeric_limits<std::size_t>::max(), message, samples);
  }

  /// Lane-targeted publish: worker `lane`'s batches land on each
  /// subscriber's lane-`lane` queue (the shared queue for a lane past
  /// its lanes).  Contract: at most one thread publishes on a given lane
  /// below fanin_lanes(), which makes the ring's ticket CAS uncontended
  /// — N workers fan in without sharing a cursor.  Same no-block/no-mutex
  /// guarantees as publish().
  std::size_t publish_lane(std::size_t lane, const Message& message, std::uint64_t samples = 1);

  /// Install a clock (typically &obs::trace_clock()) before publishers
  /// start; publish_lane_stamped() then stamps enqueued_at on messages
  /// the caller has not stamped.  Centralizing the stamp here
  /// keeps every producer on one timebase, so bus queue-wait measured
  /// downstream is never skewed against trace spans.  nullptr = no
  /// stamping (the stamp read costs one TSC conversion per message).
  void set_stamp_clock(const Clock* clock) { stamp_clock_ = clock; }

  /// publish_lane() plus the enqueued_at stamp.  Takes a mutable
  /// message because the stamp is real metadata the consumer reads back;
  /// frames are still shared, never copied.
  std::size_t publish_lane_stamped(std::size_t lane, Message& message,
                                   std::uint64_t samples = 1);

  /// Close every subscription (consumers drain then see nullopt).
  void close_all();

  /// Samples published (sum of publish()/publish_lane() weights).
  [[nodiscard]] std::uint64_t published() const {
    return published_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t fanin_lanes() const { return fanin_lanes_; }
  [[nodiscard]] std::size_t subscriber_count() const;

 private:
  /// Append-only intrusive list; nodes live until the socket dies, so
  /// publishers can walk it without reference counting or hazard
  /// pointers.
  struct SubNode {
    std::shared_ptr<Subscription> sub;
    SubNode* next;
  };

  std::size_t default_hwm_;
  std::size_t fanin_lanes_;
  const Clock* stamp_clock_ = nullptr;  ///< set before publishers start
  std::atomic<SubNode*> head_{nullptr};
  std::atomic<std::uint64_t> published_{0};
};

}  // namespace ruru
