#include "msg/pubsub.hpp"

namespace ruru {

namespace {

/// Empty polls a blocking receive spins before it parks.  Short: most of
/// a bus wait is the gap between worker batches, far longer than a spin.
constexpr std::size_t kSpinPolls = 8;

/// The queues shard `shard` of `nshards` owns, as indices into a queue
/// list of `nlanes` lanes plus the shared queue (index `nlanes`): lanes
/// shard, shard + nshards, ..., then, for shard 0, the shared queue.  A
/// lane-less list has nothing to shard: every shard is shard 0 of 1.
struct Owned {
  Owned(std::size_t shard, std::size_t nshards, std::size_t nlanes)
      : nlanes(nlanes),
        stride(nshards <= 1 || nlanes == 0 ? 1 : nshards),
        first(shard % stride),
        lanes(nlanes > first ? (nlanes - first + stride - 1) / stride : 0),
        count(lanes + (first == 0 ? 1 : 0)) {}

  /// Queue index of the k-th owned queue, k < count.
  std::size_t operator[](std::size_t k) const { return k < lanes ? first + k * stride : nlanes; }

  std::size_t nlanes;
  std::size_t stride;
  std::size_t first;
  std::size_t lanes;
  std::size_t count;
};

}  // namespace

std::optional<Message> Subscription::try_recv_shard(std::size_t shard, std::size_t nshards) {
  const Owned own(shard, nshards, lanes());
  if (own.count == 0) return std::nullopt;
  // Rotate the scan start so no owned queue starves behind a chatty one;
  // ownership is unaffected (still one consumer per lane when sharded).
  const std::size_t start =
      static_cast<std::size_t>(rr_.fetch_add(1, std::memory_order_relaxed)) % own.count;
  for (std::size_t k = 0; k < own.count; ++k) {
    if (auto v = queues_[own[(start + k) % own.count]]->try_pop()) return v;
  }
  return std::nullopt;
}

std::optional<Message> Subscription::recv_shard(std::size_t shard, std::size_t nshards) {
  for (std::size_t empty = 0;; ++empty) {
    if (auto v = try_recv_shard(shard, nshards)) return v;
    const Scan now = scan(shard, nshards);
    if (!now.pending && now.closed) return std::nullopt;  // drained
    if (empty >= kSpinPolls) wait_shard(shard, nshards, kParkTimeout);
  }
}

ParkResult Subscription::wait_shard(std::size_t shard, std::size_t nshards,
                                    std::chrono::nanoseconds timeout) {
  // Re-checked after registering on the doorbell: a message, or the
  // close() that drains the shard, means there is no reason to sleep.
  const ParkResult result = bell_.park(
      [&] {
        const Scan now = scan(shard, nshards);
        return now.pending || now.closed;
      },
      timeout);
  if (result != ParkResult::kReady) parks_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

Subscription::Scan Subscription::scan(std::size_t shard, std::size_t nshards) const {
  // A push that claimed its ring ticket before close() is counted by
  // size(), so closed + all-empty means nothing more can arrive.
  const Owned own(shard, nshards, lanes());
  Scan s;
  for (std::size_t k = 0; k < own.count; ++k) {
    const BusQueue<Message>& q = *queues_[own[k]];
    s.pending = s.pending || q.size() != 0;
    s.closed = s.closed && q.closed();
  }
  return s;
}

std::size_t Subscription::pending() const {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q->size();
  return n;
}

void Subscription::close() {
  for (auto& q : queues_) q->close();
  bell_.ring();
}

PubSocket::~PubSocket() {
  SubNode* node = head_.load(std::memory_order_acquire);
  while (node != nullptr) {
    SubNode* next = node->next;
    delete node;
    node = next;
  }
}

std::shared_ptr<Subscription> PubSocket::subscribe(std::string topic_prefix, std::size_t hwm) {
  auto sub = std::make_shared<Subscription>(std::move(topic_prefix),
                                            hwm != 0 ? hwm : default_hwm_, fanin_lanes_);
  auto* node = new SubNode{sub, head_.load(std::memory_order_relaxed)};
  while (!head_.compare_exchange_weak(node->next, node, std::memory_order_release,
                                      std::memory_order_relaxed)) {
  }
  return sub;
}

std::size_t PubSocket::publish_lane(std::size_t lane, const Message& message,
                                    std::uint64_t samples) {
  published_.fetch_add(samples, std::memory_order_relaxed);
  std::size_t accepted = 0;
  const std::string_view topic = message.topic();
  for (SubNode* node = head_.load(std::memory_order_acquire); node != nullptr;
       node = node->next) {
    if (topic.starts_with(node->sub->prefix())) {
      if (node->sub->offer(lane, message, samples)) ++accepted;
    }
  }
  return accepted;
}

std::size_t PubSocket::publish_lane_stamped(std::size_t lane, Message& message,
                                            std::uint64_t samples) {
  if (stamp_clock_ != nullptr && message.enqueued_at.ns == 0) {
    message.enqueued_at = stamp_clock_->now();
  }
  return publish_lane(lane, message, samples);
}

void PubSocket::close_all() {
  for (SubNode* node = head_.load(std::memory_order_acquire); node != nullptr;
       node = node->next) {
    node->sub->close();
  }
}

std::size_t PubSocket::subscriber_count() const {
  std::size_t n = 0;
  for (SubNode* node = head_.load(std::memory_order_acquire); node != nullptr;
       node = node->next) {
    ++n;
  }
  return n;
}

}  // namespace ruru
