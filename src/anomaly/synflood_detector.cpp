#include "anomaly/synflood_detector.hpp"

#include <cstdio>

namespace ruru {

void SynFloodDetector::close_window_locked(Timestamp start) {
  for (const auto& [server, c] : counts_) {
    if (c.syns < config_.min_syns) continue;
    const double ratio =
        c.syns != 0 ? static_cast<double>(c.completions) / static_cast<double>(c.syns) : 0.0;
    if (ratio > config_.max_completion_ratio) continue;
    Alert a;
    a.time = start;
    a.kind = "syn-flood";
    a.subject = server.to_string();
    a.score = static_cast<double>(c.syns) * (1.0 - ratio);
    char buf[128];
    std::snprintf(buf, sizeof buf, "%llu SYNs, %llu completions (ratio %.3f) in %.1fs window",
                  static_cast<unsigned long long>(c.syns),
                  static_cast<unsigned long long>(c.completions), ratio,
                  config_.window.to_sec());
    a.detail = buf;
    if (sink_) sink_(std::move(a));
  }
  counts_.clear();
}

void SynFloodDetector::count_locked(Timestamp time, Ipv4Address server,
                                    std::uint64_t Counts::*field) {
  window_.advance(time, [this](Timestamp start) { close_window_locked(start); });
  ++(counts_[server].*field);
}

void SynFloodDetector::on_syn(Timestamp time, Ipv4Address server) {
  std::lock_guard lock(mu_);
  count_locked(time, server, &Counts::syns);
}

void SynFloodDetector::on_syns(std::span<const SynEvent> syns) {
  std::lock_guard lock(mu_);
  for (const SynEvent& e : syns) count_locked(e.time, e.server, &Counts::syns);
}

void SynFloodDetector::on_completion(Timestamp time, Ipv4Address server) {
  std::lock_guard lock(mu_);
  count_locked(time, server, &Counts::completions);
}

void SynFloodDetector::on_completions(std::span<const LatencySample> samples) {
  std::lock_guard lock(mu_);
  for (const LatencySample& s : samples) {
    if (s.kind == SampleKind::kHandshake && s.server.is_v4()) {
      count_locked(s.ack_time, s.server.v4, &Counts::completions);
    }
  }
}

void SynFloodDetector::flush() {
  std::lock_guard lock(mu_);
  window_.flush([this](Timestamp start) { close_window_locked(start); });
}

}  // namespace ruru
