#pragma once
// Frame-rate-bounded arc batching for the live map.
//
// The browser draws at ~30 fps; the pipeline can complete many thousands
// of handshakes per second.  The aggregator coalesces samples arriving
// within one frame interval by (src city, dst city, color) so each frame
// carries at most one arc per visual distinction, with a count — this is
// what keeps "multiple thousands of connections per second" drawable.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "analytics/enriched_sample.hpp"
#include "viz/color_scale.hpp"

namespace ruru {

struct Arc {
  std::string src_city;
  std::string dst_city;
  double src_lat = 0.0, src_lon = 0.0;
  double dst_lat = 0.0, dst_lon = 0.0;
  ArcColor color = ArcColor::kGreen;
  std::uint32_t count = 0;         ///< samples coalesced into this arc
  Duration max_latency;            ///< worst total latency among them
  Duration mean_latency;
};

struct ArcFrame {
  Timestamp time;
  std::uint64_t sequence = 0;
  std::vector<Arc> arcs;
  std::uint64_t samples = 0;  ///< raw samples represented by this frame
};

class ArcAggregator {
 public:
  explicit ArcAggregator(ColorScale scale = ColorScale()) : scale_(scale) {}

  /// Thread-safe; called from enrichment workers.
  void add(const EnrichedSample& sample);

  /// Cut a frame: returns everything accumulated since the last cut.
  [[nodiscard]] ArcFrame cut_frame(Timestamp now);

  [[nodiscard]] std::uint64_t samples_seen() const;

 private:
  // Interned city ids, not strings: coalescing a sample into an existing
  // arc is allocation-free.  kUnlocated marks an unlocated endpoint;
  // names materialize in cut_frame().
  struct Key {
    std::uint32_t src, dst;
    int color;
    bool operator<(const Key& o) const {
      if (src != o.src) return src < o.src;
      if (dst != o.dst) return dst < o.dst;
      return color < o.color;
    }
  };
  struct Accum {
    double src_lat = 0, src_lon = 0, dst_lat = 0, dst_lon = 0;
    std::uint32_t count = 0;
    std::int64_t max_ns = 0;
    std::int64_t sum_ns = 0;
  };

  ColorScale scale_;
  mutable std::mutex mu_;
  std::map<Key, Accum> current_;
  std::uint64_t samples_ = 0;
  std::uint64_t frame_samples_ = 0;
  std::uint64_t sequence_ = 0;
};

}  // namespace ruru
