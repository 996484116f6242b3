#include "driver/nic.hpp"

#include "net/packet_view.hpp"
#include "obs/trace.hpp"
#include "obs/tsc_clock.hpp"
#include "util/byte_order.hpp"
#include "util/logging.hpp"

namespace ruru {

namespace {

// Flight-recorder stamping at the RX descriptor, the analogue of a
// NIC writing a flow-director mark.  trace_id is written on every
// packet while sampling is on (recycled mbufs must not keep a stale
// id); the TSC read happens only for the 1-in-N selected packets.
// Cost with sampling off: one predictable branch.
inline void stamp_trace(Mbuf& m, std::uint32_t hash, std::uint32_t sample_n) {
  if (sample_n == 0) return;
  m.trace_id = obs::trace_id_for(hash, sample_n);
  if (m.trace_id != 0) m.ingest_ns = obs::trace_now_ns();
}

}  // namespace

SimNic::Producer::Producer(std::uint16_t first, std::uint16_t count)
    : first_queue(first), staged(count), staged_frames(count) {}

SimNic::SimNic(const NicConfig& config, Mempool& pool)
    : config_(config),
      pool_(pool),
      rss_table_(config.rss_key),
      port_(0, config.num_queues) {
  queues_.reserve(config_.num_queues);
  lanes_.reserve(config_.num_queues);
  for (std::uint16_t q = 0; q < config_.num_queues; ++q) {
    queues_.push_back(std::make_unique<RxQueue>(config_.queue_depth));
    lanes_.push_back(std::make_unique<Producer>(q, 1));
  }
}

NicStats SimNic::stats_totals() const {
  NicStats total = port_.stats;  // StatCell copies via relaxed loads
  for (const auto& producer : lanes_) {
    const NicStats& lane = producer->stats;
    total.rx_packets += lane.rx_packets.load();
    total.rx_bytes += lane.rx_bytes.load();
    total.dropped_no_mbuf += lane.dropped_no_mbuf.load();
    total.dropped_queue_full += lane.dropped_queue_full.load();
    total.dropped_oversize += lane.dropped_oversize.load();
    total.dropped_misrouted += lane.dropped_misrouted.load();
  }
  return total;
}

std::uint32_t SimNic::hash_frame(std::span<const std::uint8_t> frame) const {
  // Fast fixed-offset extraction, the way NIC RSS engines parse: only
  // plain TCP/IPv4 and TCP/IPv6 get 4-tuple hashes; everything else
  // hashes to 0 (queue 0), which is what many NICs do for non-IP.
  if (frame.size() < 14) return 0;
  const std::uint16_t ether_type = load_be16(&frame[12]);
  if (ether_type == kEtherTypeIpv4) {
    if (frame.size() < 14 + 20) return 0;
    const std::uint8_t ihl = frame[14] & 0x0f;
    // A header shorter than 20 bytes is malformed; hashing "ports" read
    // from inside the IP header would spray garbage across queues.
    if (ihl < 5) return 0;
    const std::size_t l4 = 14 + std::size_t{ihl} * 4;
    if (frame[14 + 9] != kIpProtoTcp || frame.size() < l4 + 4) return 0;
    const Ipv4Address src(load_be32(&frame[14 + 12]));
    const Ipv4Address dst(load_be32(&frame[14 + 16]));
    const std::uint16_t sp = load_be16(&frame[l4]);
    const std::uint16_t dp = load_be16(&frame[l4 + 2]);
    return rss_table_.hash_tcp4(src, dst, sp, dp);
  }
  if (ether_type == kEtherTypeIpv6) {
    if (frame.size() < 14 + 40 + 4) return 0;
    if (frame[14 + 6] != kIpProtoTcp) return 0;
    std::array<std::uint8_t, 16> s{};
    std::array<std::uint8_t, 16> d{};
    std::copy_n(&frame[14 + 8], 16, s.begin());
    std::copy_n(&frame[14 + 24], 16, d.begin());
    const std::size_t l4 = 14 + 40;
    return rss_table_.hash_tcp6(Ipv6Address(s), Ipv6Address(d), load_be16(&frame[l4]),
                                load_be16(&frame[l4 + 2]));
  }
  return 0;
}

bool SimNic::inject(std::span<const std::uint8_t> frame, Timestamp rx_time) {
  const RxFrame one{frame, rx_time};
  return inject_burst({&one, 1}) == 1;
}

std::size_t SimNic::inject_burst(std::span<const RxFrame> frames, bool* queued) {
  return enqueue(port_, frames, queued);
}

std::size_t SimNic::inject_shard(std::uint16_t queue, std::span<const RxFrame> frames,
                                 bool* queued) {
  return enqueue(*lanes_[queue], frames, queued);
}

void SimNic::refill(Producer& p) {
  // Steady state: the mbufs this producer's workers handed back.
  for (std::size_t slot = 0; slot < p.staged.size() && p.cached < kCacheSize; ++slot) {
    SpscRing<MbufPtr>& ring = queues_[p.first_queue + slot]->recycle;
    p.cached += ring.pop_burst(p.cache.data() + p.cached, kCacheSize - p.cached);
  }
  // Cold path: the initial stock, or every buffer still in flight.
  if (p.cached == 0) p.cached = pool_.refill({p.cache.data(), kRxBurst});
}

std::size_t SimNic::enqueue(Producer& p, std::span<const RxFrame> frames, bool* queued) {
  // Stage: hash, take an mbuf from the cache, copy and stamp each frame,
  // grouped by destination queue.
  for (std::uint32_t i = 0; i < frames.size(); ++i) {
    if (queued != nullptr) queued[i] = false;
    const std::uint32_t hash = hash_frame(frames[i].data);
    const auto queue = static_cast<std::uint16_t>(hash % config_.num_queues);
    const std::size_t slot = static_cast<std::uint16_t>(queue - p.first_queue);
    if (slot >= p.staged.size()) {  // only a lane feeds a subset of the queues
      ++p.stats.dropped_misrouted;
      RURU_LOG_EVERY_N(kWarn, "driver", 65536)
          << "lane " << p.first_queue << ": frame hashes to queue " << queue
          << ", dropping (misrouted shard)";
      continue;
    }
    if (p.cached == 0) refill(p);
    if (p.cached == 0) {
      ++p.stats.dropped_no_mbuf;
      RURU_LOG_EVERY_N(kWarn, "driver", 65536)
          << "mempool exhausted, dropping frames (" << p.stats.dropped_no_mbuf
          << " on this producer)";
      continue;
    }
    MbufPtr& mbuf = p.cache[p.cached - 1];
    if (!mbuf->assign(frames[i].data)) {
      ++p.stats.dropped_oversize;
      continue;  // the mbuf stays cached for the next frame
    }
    mbuf->timestamp = frames[i].rx_time;
    mbuf->rss_hash = hash;
    mbuf->port_id = config_.port_id;
    mbuf->queue_id = queue;
    stamp_trace(*mbuf, hash, config_.trace_sample_n);
    p.staged[slot].push_back(std::move(mbuf));
    p.staged_frames[slot].push_back(i);
    --p.cached;
  }

  // Publish: one push_burst (one release store) per non-empty queue.
  // The unpushed tail of a full queue goes back to the cache it came from.
  std::size_t total = 0;
  for (std::size_t slot = 0; slot < p.staged.size(); ++slot) {
    std::vector<MbufPtr>& staged = p.staged[slot];
    if (staged.empty()) continue;
    RxQueue& rx = *queues_[p.first_queue + slot];
    const std::size_t pushed = rx.ring.push_burst(staged.data(), staged.size());
    if (pushed != 0) rx.bell.ring();
    for (std::size_t j = 0; j < pushed; ++j) {
      const std::uint32_t frame_index = p.staged_frames[slot][j];
      ++p.stats.rx_packets;
      p.stats.rx_bytes += frames[frame_index].data.size();
      if (queued != nullptr) queued[frame_index] = true;
    }
    for (std::size_t j = pushed; j < staged.size(); ++j) {
      ++p.stats.dropped_queue_full;
      // A mid-burst refill can leave the cache fuller than before the
      // burst; what does not fit returns to the pool.
      if (p.cached < kCacheSize) {
        p.cache[p.cached++] = std::move(staged[j]);
      } else {
        staged[j].reset();
      }
    }
    total += pushed;
    staged.clear();
    p.staged_frames[slot].clear();
  }
  return total;
}

std::size_t SimNic::rx_burst(std::uint16_t queue, std::span<MbufPtr> out) {
  return queues_[queue]->ring.pop_burst(out.data(), out.size());
}

void SimNic::recycle(std::uint16_t queue, std::span<MbufPtr> burst) {
  const std::size_t pushed = queues_[queue]->recycle.push_burst(burst.data(), burst.size());
  for (std::size_t j = pushed; j < burst.size(); ++j) burst[j].reset();
}

ParkResult SimNic::wait_rx(std::uint16_t queue, std::chrono::nanoseconds timeout) {
  RxQueue& rx = *queues_[queue];
  return rx.bell.park([&rx] { return rx.ring.size() != 0; }, timeout);
}

std::size_t SimNic::queue_occupancy(std::uint16_t queue) const {
  return queues_[queue]->ring.size();
}

}  // namespace ruru
