#pragma once
// Ruru Analytics worker pool: the multi-threaded stage of Figure 2 that
// consumes latency measurements from the bus, enriches them, strips IPs
// and fans the result out to downstream sinks (TSDB writer, WebSocket
// feed, anomaly detectors).  Its threads start through an LcoreLauncher,
// as the queue workers' do: the same best-effort CPU pin, the same
// logged pin failure, the same CPU meter.

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "analytics/enricher.hpp"
#include "driver/eal.hpp"
#include "msg/codec.hpp"
#include "msg/pubsub.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ruru {

/// Per-worker observability hooks (one shard per pool thread).
/// Default-constructed handles are inert; a pool without hooks takes no
/// timestamps at all.
struct PoolObs {
  obs::HistogramHandle queue_wait;   ///< bus publish -> dequeue, ns
  obs::HistogramHandle enrich_batch; ///< decode+enrich+sinks per message, ns
  obs::HistogramHandle transit;      ///< sampled publish -> sinks-done, ns
  std::uint32_t transit_sample_every = 16;  ///< record 1-in-N messages
  /// Flight recorder: this worker's span ring + the 1-in-N rate used to
  /// re-derive per-sample trace ids after decode (the id is not on the
  /// wire).  Inert handle / 0 = tracing off for this worker.
  obs::TraceHandle trace;
  std::uint32_t trace_sample_n = 0;
};

class EnrichmentPool {
 public:
  using Sink = std::function<void(const EnrichedSample&)>;
  /// Built once per worker thread at start; `index` is the worker slot,
  /// used as the histogram shard id.
  using ObsFactory = std::function<PoolObs(std::size_t index)>;

  /// `source`: a bus subscription carrying latency batches
  /// (encode_latency_batch). Each of the `threads` workers owns its own
  /// Enricher (separate LRU caches, no sharing). `geo6` optional (may be
  /// null).
  EnrichmentPool(std::shared_ptr<Subscription> source, const GeoDatabase& geo,
                 const AsDatabase& as, std::size_t threads,
                 const Geo6Database* geo6 = nullptr);
  ~EnrichmentPool();

  EnrichmentPool(const EnrichmentPool&) = delete;
  EnrichmentPool& operator=(const EnrichmentPool&) = delete;

  /// Register before start(); sinks are invoked from worker threads and
  /// must be thread-safe.
  void add_sink(Sink sink) { sinks_.push_back(std::move(sink)); }

  /// Install before start(). Each worker calls the factory once with its
  /// index, so histograms shard per thread (single writer per shard).
  void set_obs_factory(ObsFactory factory) { obs_factory_ = std::move(factory); }

  /// CPU pins for the pool's threads, one per worker slot (shorter lists
  /// leave the tail unpinned; kNoCpuPin skips a slot). Best-effort: a
  /// failed pin is logged and the thread runs unpinned. Call before
  /// start().
  void set_pin_cpus(std::vector<int> cpus) { pin_cpus_ = std::move(cpus); }

  void start();
  /// Waits for the subscription to drain (after its publisher closes it)
  /// and joins the workers.
  void stop();

  /// Samples enriched (a batched message counts all its samples).
  [[nodiscard]] std::uint64_t processed() const { return processed_.load(); }
  /// Messages (not samples) whose payload was rejected.
  [[nodiscard]] std::uint64_t decode_failures() const { return decode_failures_.load(); }
  /// CPU time (ns) the pool's threads have used, running or joined.
  [[nodiscard]] std::uint64_t cpu_ns() const { return lcores_.cpu_ns(); }
  /// Aggregated cache stats across workers (valid after stop()).
  [[nodiscard]] EnricherStats combined_stats() const;

 private:
  void worker_main(std::size_t index);

  std::shared_ptr<Subscription> source_;
  const GeoDatabase& geo_;
  const AsDatabase& as_;
  std::size_t thread_count_;
  std::vector<Sink> sinks_;
  ObsFactory obs_factory_;
  std::vector<int> pin_cpus_;
  std::vector<std::unique_ptr<Enricher>> enrichers_;
  std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::uint64_t> decode_failures_{0};
  bool started_ = false;
  /// Last: its destructor joins the threads before the state they use
  /// goes away.
  LcoreLauncher lcores_;
};

}  // namespace ruru
