#pragma once
// Feeding a pipeline: scenario replay and pcap replay.
//
// Replay is as-fast-as-possible (the pipeline is the thing under test;
// packet timestamps carry the scenario's virtual time), matching how the
// benches measure sustained throughput.

#include <string>

#include "capture/pcap.hpp"
#include "capture/traffic_model.hpp"
#include "core/pipeline.hpp"

namespace ruru {

struct ReplayStats {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t inject_drops = 0;
  double wall_seconds = 0.0;  ///< real time spent injecting

  [[nodiscard]] double frames_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(frames) / wall_seconds : 0.0;
  }
  [[nodiscard]] double gbits_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(bytes) * 8.0 / wall_seconds / 1e9 : 0.0;
  }
};

/// Retries a frame the NIC refused on its own RSS queue (a bounded
/// yield loop while the workers drain), through inject_shard(), which
/// does not feed the link meter: the refused attempt already metered the
/// frame.  Call from the producer thread.  False when the pipeline stays
/// wedged; the caller counts the drop.
bool retry_inject(RuruPipeline& pipeline, const RxFrame& frame);

/// Drains `model` into `pipeline` (which must be started).
/// `retry_drops`: when the NIC queue/mempool is momentarily full, retry
/// instead of dropping — keeps accuracy experiments lossless; throughput
/// benches set it false to measure honest drop behaviour.
ReplayStats replay_scenario(RuruPipeline& pipeline, TrafficModel& model,
                            bool retry_drops = true);

/// Replays a pcap file into the pipeline.
Result<ReplayStats> replay_pcap(RuruPipeline& pipeline, const std::string& path,
                                bool retry_drops = true);

/// Sharded replay: pregenerates the scenario, partitions frames with the
/// NIC's own RSS partition function (RuruPipeline::queue_for), then runs
/// one producer thread per RX queue, each injecting only its own shard
/// via inject_shard().  Because the partition function IS the NIC's
/// queue-steering hash, every per-queue stream is bit-identical to what
/// the single-producer path would have enqueued — same workers, same
/// samples — while injection itself scales across producer lanes instead
/// of serialising on one thread.  The link meter is fed once by the
/// coordinator (capture order), not by the lanes.  wall_seconds covers
/// the parallel injection makespan, excluding pregeneration.
ReplayStats replay_scenario_sharded(RuruPipeline& pipeline, TrafficModel& model,
                                    bool retry_drops = true);

/// Paced replay: frames are injected when the wall clock reaches
/// `frame_time / time_scale` (time_scale 1.0 = real time, 10.0 = 10x
/// fast-forward). This is how a live demo runs; throughput benches use
/// the as-fast-as-possible variants above.
ReplayStats replay_scenario_paced(RuruPipeline& pipeline, TrafficModel& model,
                                  double time_scale = 1.0);

}  // namespace ruru
