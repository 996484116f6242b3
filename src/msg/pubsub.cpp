#include "msg/pubsub.hpp"

namespace ruru {

std::optional<Message> Subscription::try_recv() {
  if (lanes_.empty()) return queue_.try_pop();
  // Rotate the scan start so a consumer pool drains lanes fairly and no
  // lane starves behind a chatty one.
  const std::size_t total = lanes_.size() + 1;  // + shared queue
  const std::size_t start =
      static_cast<std::size_t>(rr_.fetch_add(1, std::memory_order_relaxed)) % total;
  for (std::size_t k = 0; k < total; ++k) {
    const std::size_t idx = (start + k) % total;
    BusQueue<Message>& q = idx < lanes_.size() ? *lanes_[idx] : queue_;
    if (auto v = q.try_pop()) return v;
  }
  return std::nullopt;
}

std::optional<Message> Subscription::recv() {
  if (lanes_.empty()) return queue_.pop();
  detail::Backoff backoff;
  while (true) {
    if (auto v = try_recv()) return v;
    if (closed_and_drained()) return std::nullopt;
    backoff.pause();
  }
}

std::optional<Message> Subscription::try_recv_shard(std::size_t shard, std::size_t nshards) {
  if (nshards <= 1 || lanes_.empty()) return try_recv();
  shard %= nshards;
  // This shard owns lanes shard, shard + nshards, shard + 2*nshards, ...
  const std::size_t nmine =
      lanes_.size() > shard ? (lanes_.size() - shard + nshards - 1) / nshards : 0;
  if (nmine != 0) {
    // Rotate the start lane so no owned lane starves behind a chatty
    // one; ownership is unaffected (still one consumer per lane).
    const std::size_t start =
        static_cast<std::size_t>(rr_.fetch_add(1, std::memory_order_relaxed)) % nmine;
    for (std::size_t k = 0; k < nmine; ++k) {
      const std::size_t lane = shard + ((start + k) % nmine) * nshards;
      if (auto v = lanes_[lane]->try_pop()) return v;
    }
  }
  if (shard == 0) return queue_.try_pop();
  return std::nullopt;
}

std::optional<Message> Subscription::recv_shard(std::size_t shard, std::size_t nshards) {
  if (nshards <= 1 || lanes_.empty()) return recv();
  detail::Backoff backoff;
  while (true) {
    if (auto v = try_recv_shard(shard, nshards)) return v;
    if (shard_closed_and_drained(shard % nshards, nshards)) return std::nullopt;
    backoff.pause();
  }
}

bool Subscription::shard_closed_and_drained(std::size_t shard, std::size_t nshards) const {
  if (shard == 0 && (!queue_.closed() || queue_.size() != 0)) return false;
  for (std::size_t lane = shard; lane < lanes_.size(); lane += nshards) {
    if (!lanes_[lane]->closed() || lanes_[lane]->size() != 0) return false;
  }
  return true;
}

bool Subscription::closed_and_drained() const {
  // Same contract as BusQueue::pop: a push that claimed its ring ticket
  // before close() is counted by size(), so closed + all-empty means
  // nothing more can arrive.
  if (!queue_.closed() || queue_.size() != 0) return false;
  for (const auto& lane : lanes_) {
    if (!lane->closed() || lane->size() != 0) return false;
  }
  return true;
}

std::size_t Subscription::pending() const {
  std::size_t n = queue_.size();
  for (const auto& lane : lanes_) n += lane->size();
  return n;
}

void Subscription::close() {
  queue_.close();
  for (auto& lane : lanes_) lane->close();
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

std::size_t PubSocket::publish(const Message& message, std::uint64_t samples) {
  published_.fetch_add(samples, std::memory_order_relaxed);
  std::size_t accepted = 0;
  const std::string_view topic = message.topic();
  for (SubNode* node = head_.load(std::memory_order_acquire); node != nullptr;
       node = node->next) {
    if (topic.starts_with(node->sub->prefix())) {
      if (node->sub->offer(message, samples)) ++accepted;
    }
  }
  return accepted;
}

std::size_t PubSocket::publish_lane(std::size_t lane, const Message& message,
                                    std::uint64_t samples) {
  published_.fetch_add(samples, std::memory_order_relaxed);
  std::size_t accepted = 0;
  const std::string_view topic = message.topic();
  for (SubNode* node = head_.load(std::memory_order_acquire); node != nullptr;
       node = node->next) {
    if (topic.starts_with(node->sub->prefix())) {
      if (node->sub->offer_lane(lane, message, samples)) ++accepted;
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
