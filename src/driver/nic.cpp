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

SimNic::SimNic(const NicConfig& config, Mempool& pool)
    : config_(config), pool_(pool), rss_table_(config.rss_key) {
  queues_.reserve(config_.num_queues);
  staging_.resize(config_.num_queues);
  staged_frames_.resize(config_.num_queues);
  lane_stats_.resize(config_.num_queues);
  lane_scratch_.resize(config_.num_queues);
  for (std::uint16_t q = 0; q < config_.num_queues; ++q) {
    queues_.push_back(std::make_unique<RxQueue>(config_.queue_depth));
  }
}

NicStats SimNic::stats_totals() const {
  NicStats total = stats_;  // StatCell copies via relaxed loads
  for (const NicStats& lane : lane_stats_) {
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
  // Stage: alloc + copy + hash each frame, grouped by destination queue.
  for (std::uint32_t i = 0; i < frames.size(); ++i) {
    if (queued != nullptr) queued[i] = false;
    MbufPtr mbuf = pool_.alloc();
    if (!mbuf) {
      ++stats_.dropped_no_mbuf;
      RURU_LOG_EVERY_N(kWarn, "driver", 65536)
          << "mempool exhausted, dropping frames (total " << stats_.dropped_no_mbuf << ")";
      continue;
    }
    if (!mbuf->assign(frames[i].data)) {
      ++stats_.dropped_oversize;
      continue;
    }
    mbuf->timestamp = frames[i].rx_time;
    mbuf->rss_hash = hash_frame(frames[i].data);
    mbuf->port_id = config_.port_id;
    stamp_trace(*mbuf, mbuf->rss_hash, config_.trace_sample_n);
    const std::uint16_t queue = static_cast<std::uint16_t>(mbuf->rss_hash % config_.num_queues);
    mbuf->queue_id = queue;
    staging_[queue].push_back(std::move(mbuf));
    staged_frames_[queue].push_back(i);
  }

  // Publish: one push_burst (one release store) per non-empty queue.
  std::size_t total = 0;
  for (std::uint16_t q = 0; q < config_.num_queues; ++q) {
    auto& staged = staging_[q];
    if (staged.empty()) continue;
    const std::size_t pushed = queues_[q]->ring.push_burst(staged.data(), staged.size());
    if (pushed != 0) queues_[q]->bell.ring();
    for (std::size_t j = 0; j < pushed; ++j) {
      const std::uint32_t frame_index = staged_frames_[q][j];
      ++stats_.rx_packets;
      stats_.rx_bytes += frames[frame_index].data.size();
      if (queued != nullptr) queued[frame_index] = true;
    }
    for (std::size_t j = pushed; j < staged.size(); ++j) {
      ++stats_.dropped_queue_full;
      staged[j].reset();  // return the mbuf to the pool
    }
    total += pushed;
    staged.clear();
    staged_frames_[q].clear();
  }
  return total;
}

std::size_t SimNic::inject_shard(std::uint16_t queue, std::span<const RxFrame> frames,
                                 bool* queued) {
  NicStats& stats = lane_stats_[queue];
  LaneScratch& scratch = lane_scratch_[queue];
  scratch.mbufs.clear();
  scratch.frame_index.clear();
  if (scratch.mbufs.capacity() < frames.size()) {
    scratch.mbufs.reserve(frames.size());
    scratch.frame_index.reserve(frames.size());
  }

  // One mempool lock for the whole burst: grab the worst-case mbuf count
  // up front, return the unused tail after staging.
  scratch.mbufs.resize(frames.size());
  const std::size_t got = pool_.alloc_bulk(scratch.mbufs);
  std::size_t staged = 0;  // mbufs[0..staged) carry assigned frames, in order
  for (std::uint32_t i = 0; i < frames.size(); ++i) {
    if (queued != nullptr) queued[i] = false;
    const std::uint32_t hash = hash_frame(frames[i].data);
    if (static_cast<std::uint16_t>(hash % config_.num_queues) != queue) {
      ++stats.dropped_misrouted;
      RURU_LOG_EVERY_N(kWarn, "driver", 65536)
          << "lane " << queue << ": frame hashes to queue " << (hash % config_.num_queues)
          << ", dropping (misrouted shard)";
      continue;
    }
    if (staged >= got) {
      ++stats.dropped_no_mbuf;
      RURU_LOG_EVERY_N(kWarn, "driver", 65536)
          << "mempool exhausted, dropping frames (lane " << queue << ")";
      continue;
    }
    MbufPtr& mbuf = scratch.mbufs[staged];
    if (!mbuf->assign(frames[i].data)) {
      ++stats.dropped_oversize;
      continue;  // slot keeps its mbuf; the next frame reuses it
    }
    mbuf->timestamp = frames[i].rx_time;
    mbuf->rss_hash = hash;
    mbuf->port_id = config_.port_id;
    mbuf->queue_id = queue;
    stamp_trace(*mbuf, hash, config_.trace_sample_n);
    scratch.frame_index.push_back(i);
    ++staged;
  }
  // Release unused pre-allocated mbufs back to the pool.
  for (std::size_t j = staged; j < got; ++j) scratch.mbufs[j].reset();
  const std::size_t pushed = queues_[queue]->ring.push_burst(scratch.mbufs.data(), staged);
  if (pushed != 0) queues_[queue]->bell.ring();
  for (std::size_t j = 0; j < pushed; ++j) {
    const std::uint32_t frame_index = scratch.frame_index[j];
    ++stats.rx_packets;
    stats.rx_bytes += frames[frame_index].data.size();
    if (queued != nullptr) queued[frame_index] = true;
  }
  for (std::size_t j = pushed; j < staged; ++j) {
    ++stats.dropped_queue_full;
    scratch.mbufs[j].reset();  // return the mbuf to the pool
  }
  scratch.mbufs.clear();
  scratch.frame_index.clear();
  return pushed;
}

std::size_t SimNic::rx_burst(std::uint16_t queue, std::span<MbufPtr> out) {
  return queues_[queue]->ring.pop_burst(out.data(), out.size());
}

ParkResult SimNic::wait_rx(std::uint16_t queue, std::chrono::nanoseconds timeout) {
  RxQueue& rx = *queues_[queue];
  return rx.bell.park([&rx] { return rx.ring.size() != 0; }, timeout);
}

std::size_t SimNic::queue_occupancy(std::uint16_t queue) const {
  return queues_[queue]->ring.size();
}

}  // namespace ruru
