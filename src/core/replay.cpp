#include "core/replay.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <thread>

namespace ruru {

bool retry_inject(RuruPipeline& pipeline, const RxFrame& frame) {
  // Lossless accuracy runs: give the workers time to drain, then count
  // an honest drop.
  const std::uint16_t queue = pipeline.queue_for(frame.data);
  for (int attempt = 0; attempt < 1'000'000; ++attempt) {
    std::this_thread::yield();
    if (pipeline.inject_shard(queue, {&frame, 1}) == 1) return true;
  }
  return false;  // pipeline wedged; caller counts and moves on
}

namespace {

/// Frames per inject_burst() call: one worker rx burst, so each burst
/// costs one SpscRing release-store per queue instead of one per frame.
constexpr std::size_t kInjectBurst = QueueWorker::kBurst;

/// Accumulates frames and feeds the pipeline in inject_burst() calls.
/// Frames a burst could not queue are retried individually
/// (retry_drops) or counted as drops.
class BurstInjector {
 public:
  BurstInjector(RuruPipeline& pipeline, bool retry_drops, ReplayStats& stats)
      : pipeline_(pipeline), retry_drops_(retry_drops), stats_(stats) {
    frames_.reserve(kInjectBurst);
    refs_.reserve(kInjectBurst);
  }

  void add(TimedFrame frame) {
    ++stats_.frames;
    stats_.bytes += frame.frame.size();
    frames_.push_back(std::move(frame));
    if (frames_.size() >= kInjectBurst) flush();
  }

  void flush() {
    if (frames_.empty()) return;
    refs_.clear();
    for (const TimedFrame& f : frames_) refs_.push_back({f.frame, f.timestamp});
    pipeline_.inject_burst(refs_, queued_.data());
    for (std::size_t i = 0; i < frames_.size(); ++i) {
      if (queued_[i]) continue;
      if (retry_drops_ && retry_inject(pipeline_, refs_[i])) continue;
      ++stats_.inject_drops;
    }
    frames_.clear();
  }

 private:
  RuruPipeline& pipeline_;
  bool retry_drops_;
  ReplayStats& stats_;
  std::vector<TimedFrame> frames_;  ///< owns the burst's bytes
  std::vector<RxFrame> refs_;
  std::array<bool, kInjectBurst> queued_{};
};

}  // namespace

ReplayStats replay_scenario(RuruPipeline& pipeline, TrafficModel& model, bool retry_drops) {
  ReplayStats stats;
  const auto start = std::chrono::steady_clock::now();
  BurstInjector injector(pipeline, retry_drops, stats);
  while (auto frame = model.next()) injector.add(std::move(*frame));
  injector.flush();
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return stats;
}

ReplayStats replay_scenario_sharded(RuruPipeline& pipeline, TrafficModel& model,
                                    bool retry_drops) {
  // Pregenerate the whole scenario serially (the model is stateful) and
  // meter the wire once, in capture order — producer lanes must never
  // touch the single-writer link meter.
  std::vector<TimedFrame> wire;
  while (auto frame = model.next()) wire.push_back(std::move(*frame));

  ReplayStats stats;
  stats.frames = wire.size();
  std::vector<RxFrame> refs;
  refs.reserve(wire.size());
  for (const TimedFrame& f : wire) {
    refs.push_back({f.frame, f.timestamp});
    stats.bytes += f.frame.size();
  }
  pipeline.meter_frames(refs);

  // Partition with the NIC's own RSS steering function: lane q carries
  // exactly the frames queue q would have received from the whole-port
  // path, so per-queue streams (and thus every worker's view) are
  // bit-identical to single-producer replay.
  const std::uint16_t lanes = pipeline.nic().num_queues();
  std::vector<std::vector<RxFrame>> shard(lanes);
  for (const RxFrame& f : refs) shard[pipeline.queue_for(f.data)].push_back(f);

  std::vector<std::uint64_t> lane_drops(lanes, 0);
  std::vector<std::thread> producers;
  producers.reserve(lanes);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint16_t q = 0; q < lanes; ++q) {
    producers.emplace_back([&pipeline, &shard, &lane_drops, retry_drops, q] {
      const std::vector<RxFrame>& frames = shard[q];
      std::array<bool, kInjectBurst> queued{};
      for (std::size_t off = 0; off < frames.size(); off += kInjectBurst) {
        const std::size_t n = std::min(kInjectBurst, frames.size() - off);
        const std::span<const RxFrame> chunk(frames.data() + off, n);
        pipeline.inject_shard(q, chunk, queued.data());
        for (std::size_t i = 0; i < n; ++i) {
          if (queued[i]) continue;
          if (retry_drops && retry_inject(pipeline, chunk[i])) continue;
          ++lane_drops[q];
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  for (const std::uint64_t d : lane_drops) stats.inject_drops += d;
  return stats;
}

ReplayStats replay_scenario_paced(RuruPipeline& pipeline, TrafficModel& model,
                                  double time_scale) {
  // Paced replay stays per-frame: injection time is dictated by the wall
  // clock, so there is never a burst to amortize.
  ReplayStats stats;
  if (time_scale <= 0) time_scale = 1.0;
  const auto wall_start = std::chrono::steady_clock::now();
  while (auto frame = model.next()) {
    const auto due = wall_start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                                      static_cast<double>(frame->timestamp.ns) / time_scale));
    std::this_thread::sleep_until(due);
    ++stats.frames;
    stats.bytes += frame->frame.size();
    if (!pipeline.inject(frame->frame, frame->timestamp) &&
        !retry_inject(pipeline, {frame->frame, frame->timestamp})) {
      ++stats.inject_drops;
    }
  }
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return stats;
}

Result<ReplayStats> replay_pcap(RuruPipeline& pipeline, const std::string& path,
                                bool retry_drops) {
  auto reader = PcapReader::open(path);
  if (!reader) return make_error(reader.error());
  ReplayStats stats;
  const auto start = std::chrono::steady_clock::now();
  BurstInjector injector(pipeline, retry_drops, stats);
  while (auto record = reader.value().next()) {
    injector.add(TimedFrame{record->timestamp, std::move(record->frame)});
  }
  injector.flush();
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return stats;
}

}  // namespace ruru
