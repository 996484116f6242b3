#include "analytics/pool.hpp"

#include "obs/tsc_clock.hpp"

namespace ruru {

EnrichmentPool::EnrichmentPool(std::shared_ptr<Subscription> source, const GeoDatabase& geo,
                               const AsDatabase& as, std::size_t threads,
                               const Geo6Database* geo6)
    : source_(std::move(source)), geo_(geo), as_(as), thread_count_(threads == 0 ? 1 : threads) {
  enrichers_.reserve(thread_count_);
  for (std::size_t i = 0; i < thread_count_; ++i) {
    auto enricher = std::make_unique<Enricher>(geo_, as_);
    enricher->set_geo6(geo6);
    enrichers_.push_back(std::move(enricher));
  }
}

EnrichmentPool::~EnrichmentPool() { stop(); }

void EnrichmentPool::start() {
  if (started_) return;
  started_ = true;
  // The launcher's stop flag goes unread: a worker runs until its
  // subscription is closed and drained.
  for (std::size_t i = 0; i < thread_count_; ++i) {
    const int cpu = i < pin_cpus_.size() ? pin_cpus_[i] : kNoCpuPin;
    lcores_.launch([this, i](std::uint32_t, const std::atomic<bool>&) { worker_main(i); }, cpu);
  }
}

void EnrichmentPool::stop() { lcores_.stop_and_join(); }

void EnrichmentPool::worker_main(std::size_t index) {
  Enricher& enricher = *enrichers_[index];
  const PoolObs obs = obs_factory_ ? obs_factory_(index) : PoolObs{};
  // Only take timestamps when someone is listening; an uninstrumented
  // pool runs the original loop byte for byte.  Timestamps come from
  // the calibrated TSC clock — the same timebase publishers stamp
  // enqueued_at with and trace spans use, so queue-wait and span
  // arithmetic never mix clock domains (and never see NTP slew).
  const bool timed = obs.queue_wait.attached() || obs.enrich_batch.attached() ||
                     obs.transit.attached();
  const bool tracing = obs.trace.attached() && obs.trace_sample_n != 0;
  const obs::TscClock& clock = obs::trace_clock();
  std::uint64_t message_count = 0;
  // Reused decode buffer: one batch decode per message, no per-sample
  // allocation.
  std::vector<LatencySample> samples;
  samples.reserve(kMaxLatencyBatch);
  // Reused enrichment output buffer — EnrichedSample is trivially
  // copyable, so the batch path never touches the allocator in steady
  // state.
  std::vector<EnrichedSample> enriched;
  enriched.reserve(kMaxLatencyBatch);
  // Sharded inbox: when every worker can own at least one fan-in lane,
  // worker w consumes only lanes where lane % threads == w — uncontended
  // SPSC pops, and each flow (RSS-pinned to one publisher lane) stays on
  // one worker, in order.  With one thread, or more threads than lanes
  // (a sharded worker would own none and idle), every worker receives as
  // shard 0 of 1: one shared scan of every lane.
  const bool sharded = thread_count_ > 1 && source_->lanes() >= thread_count_;
  const std::size_t nshards = sharded ? thread_count_ : 1;
  while (true) {
    auto msg = source_->recv_shard(index, nshards);  // blocking; nullopt == closed and drained
    if (!msg) break;
    // A batch with no traced samples short-circuits on the message's
    // trace_id flag; per-sample work below only runs for traced batches.
    const bool traced_msg = tracing && msg->trace_id != 0;
    Timestamp dequeued{};
    if (timed || traced_msg) {
      dequeued = clock.now();
      if (timed && msg->enqueued_at.ns != 0) {
        obs.queue_wait.record(dequeued - msg->enqueued_at);
      }
    }
    samples.clear();
    if (msg->frames.size() < 2 || !decode_latency_payload(msg->frames[1], samples)) {
      decode_failures_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (traced_msg) {
      // Re-derive per-sample ids from the serialized RSS hash (the id
      // itself never crosses the wire) so enrichment output carries them.
      for (LatencySample& s : samples) {
        s.trace_id = obs::trace_id_for(s.rss_hash, obs.trace_sample_n);
      }
    }
    enriched.clear();
    enricher.enrich_batch(samples, enriched);
    for (const EnrichedSample& sample : enriched) {
      for (const auto& sink : sinks_) sink(sample);
    }
    // processed() counts samples, not messages, so pipeline accounting
    // stays truthful when the feed batches.
    processed_.fetch_add(samples.size(), std::memory_order_relaxed);
    if (timed || traced_msg) {
      const Timestamp done = clock.now();
      if (timed) {
        obs.enrich_batch.record(done - dequeued);
        // Sampled end-to-end transit: publish stamp -> sinks complete.
        ++message_count;
        const std::uint64_t every =
            obs.transit_sample_every == 0 ? 1 : obs.transit_sample_every;
        if (msg->enqueued_at.ns != 0 && message_count % every == 0) {
          obs.transit.record(done - msg->enqueued_at);
        }
      }
      if (traced_msg) {
        const std::uint16_t shard = static_cast<std::uint16_t>(index);
        for (const LatencySample& s : samples) {
          if (s.trace_id == 0) continue;
          // bus span: publish stamp -> dequeue; enrich span: dequeue ->
          // sinks done.  Batch-level times attributed to each traced
          // sample — per-sample timing would mean a TSC read per sample.
          if (msg->enqueued_at.ns != 0) {
            obs.trace.span(obs::TraceStage::kBus, s.trace_id, msg->enqueued_at.ns,
                           (dequeued - msg->enqueued_at).ns,
                           static_cast<std::uint32_t>(samples.size()), shard);
          }
          obs.trace.span(obs::TraceStage::kEnrich, s.trace_id, dequeued.ns,
                         (done - dequeued).ns, static_cast<std::uint32_t>(samples.size()),
                         shard);
        }
      }
    }
  }
}

EnricherStats EnrichmentPool::combined_stats() const {
  EnricherStats total;
  for (const auto& e : enrichers_) {
    const auto& s = e->stats();
    total.enriched += s.enriched;
    total.unlocated += s.unlocated;
    total.cache_hits += s.cache_hits;
    total.cache_misses += s.cache_misses;
  }
  return total;
}

}  // namespace ruru
