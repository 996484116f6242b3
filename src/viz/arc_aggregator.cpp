#include "viz/arc_aggregator.hpp"

namespace ruru {

void ArcAggregator::add(const EnrichedSample& s) {
  const ArcColor color = scale_.bucket(s.total);
  const Key key{s.client.city_key(), s.server.city_key(), static_cast<int>(color)};
  std::lock_guard lock(mu_);
  Accum& a = current_[key];
  if (a.count == 0) {
    a.src_lat = s.client.latitude;
    a.src_lon = s.client.longitude;
    a.dst_lat = s.server.latitude;
    a.dst_lon = s.server.longitude;
  }
  ++a.count;
  a.sum_ns += s.total.ns;
  if (s.total.ns > a.max_ns) a.max_ns = s.total.ns;
  ++samples_;
  ++frame_samples_;
}

ArcFrame ArcAggregator::cut_frame(Timestamp now) {
  ArcFrame frame;
  frame.time = now;
  std::lock_guard lock(mu_);
  frame.sequence = sequence_++;
  frame.samples = frame_samples_;
  frame_samples_ = 0;
  frame.arcs.reserve(current_.size());
  for (auto& [key, a] : current_) {
    Arc arc;
    arc.src_city = name_of(key.src);
    arc.dst_city = name_of(key.dst);
    arc.src_lat = a.src_lat;
    arc.src_lon = a.src_lon;
    arc.dst_lat = a.dst_lat;
    arc.dst_lon = a.dst_lon;
    arc.color = static_cast<ArcColor>(key.color);
    arc.count = a.count;
    arc.max_latency = Duration{a.max_ns};
    arc.mean_latency = Duration{a.count != 0 ? a.sum_ns / a.count : 0};
    frame.arcs.push_back(std::move(arc));
  }
  current_.clear();
  return frame;
}

std::uint64_t ArcAggregator::samples_seen() const {
  std::lock_guard lock(mu_);
  return samples_;
}

}  // namespace ruru
