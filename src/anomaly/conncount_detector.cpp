#include "anomaly/conncount_detector.hpp"

#include <cmath>
#include <cstdio>

namespace ruru {

void ConnCountDetector::add(const EnrichedSample& sample) {
  std::lock_guard lock(mu_);
  window_.advance(sample.completed_at, [this](Timestamp start) { close_window_locked(start); });
  ++window_counts_[city_pair_key(sample)];
}

void ConnCountDetector::close_window_locked(Timestamp start) {
  // Every known pair gets an observation (0 when quiet this window).
  for (auto& [key, state] : baselines_) {
    if (window_counts_.find(key) == window_counts_.end()) window_counts_[key] = 0;
  }
  for (const auto& [key, count] : window_counts_) {
    PairState& st = baselines_[key];
    const auto x = static_cast<double>(count);
    const double sigma = std::max(std::sqrt(st.var), config_.min_sigma);
    const double z = (x - st.mean) / sigma;
    const bool anomalous =
        st.windows >= config_.warmup_windows && z > config_.k_sigma && count >= config_.min_count;
    if (anomalous) {
      Alert a;
      a.time = start;
      a.kind = "conn-count";
      a.subject = pair_label(key);
      a.score = z;
      char buf[128];
      std::snprintf(buf, sizeof buf, "%llu connections vs baseline %.1f (sigma %.1f)",
                    static_cast<unsigned long long>(count), st.mean, sigma);
      a.detail = buf;
      if (sink_) sink_(std::move(a));
      // Do not absorb the anomaly into the baseline.
    } else {
      const double delta = x - st.mean;
      st.mean += config_.alpha * delta;
      st.var = (1.0 - config_.alpha) * (st.var + config_.alpha * delta * delta);
    }
    ++st.windows;
  }
  window_counts_.clear();
}

void ConnCountDetector::flush() {
  std::lock_guard lock(mu_);
  window_.flush([this](Timestamp start) { close_window_locked(start); });
}

}  // namespace ruru
