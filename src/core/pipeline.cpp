#include "core/pipeline.hpp"

#include <array>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "anomaly/alert_codec.hpp"
#include "msg/codec.hpp"
#include "obs/tsc_clock.hpp"
#include "util/logging.hpp"

namespace ruru {

namespace {

/// A stage counter: its registry name and the StatCell it reads in the
/// stage's stats struct.  Each table below names every counter of one
/// struct exactly once; register_metrics() and summary() both walk it.
template <typename Stats>
struct StageCounter {
  const char* name;
  StatCell Stats::*cell;
};

constexpr StageCounter<NicStats> kNicCounters[] = {
    {"nic.rx_packets", &NicStats::rx_packets},
    {"nic.rx_bytes", &NicStats::rx_bytes},
    {"nic.dropped_no_mbuf", &NicStats::dropped_no_mbuf},
    {"nic.dropped_queue_full", &NicStats::dropped_queue_full},
    {"nic.dropped_oversize", &NicStats::dropped_oversize},
    {"nic.dropped_misrouted", &NicStats::dropped_misrouted},
};

constexpr StageCounter<WorkerStats> kWorkerCounters[] = {
    {"worker.polls", &WorkerStats::polls},
    {"worker.empty_polls", &WorkerStats::empty_polls},
    {"worker.parks", &WorkerStats::parks},
    {"worker.packets", &WorkerStats::packets},
    {"worker.bytes", &WorkerStats::bytes},
    {"worker.fast_path_skips", &WorkerStats::fast_path_skips},
    {"worker.inflow_consumed", &WorkerStats::inflow_consumed},
    {"worker.batch_flushes", &WorkerStats::batch_flushes},
    {"worker.batched_samples", &WorkerStats::batched_samples},
    // Vector-loop lane accounting (all zero under the scalar oracle loop).
    {"worker.lane_skip", &WorkerStats::lane_skip},
    {"worker.lane_established", &WorkerStats::lane_established},
    {"worker.lane_need_parse", &WorkerStats::lane_need_parse},
    {"worker.lane_revalidated", &WorkerStats::lane_revalidated},
    {"worker.classify_reprobes", &WorkerStats::classify_reprobes},
};

/// WorkerStats::parse_status, indexed by ParseStatus value.
constexpr std::array<const char*, 5> kParseNames = {
    "worker.parse_ok", "worker.parse_not_ip", "worker.parse_not_tcp", "worker.parse_fragment",
    "worker.parse_malformed"};

constexpr StageCounter<TrackerStats> kTrackerCounters[] = {
    {"tracker.syn_seen", &TrackerStats::syn_seen},
    {"tracker.syn_retransmissions", &TrackerStats::syn_retransmissions},
    {"tracker.synack_seen", &TrackerStats::synack_seen},
    {"tracker.synack_unmatched", &TrackerStats::synack_unmatched},
    {"tracker.ack_matched", &TrackerStats::ack_matched},
    {"tracker.rst_seen", &TrackerStats::rst_seen},
    {"tracker.samples_emitted", &TrackerStats::samples_emitted},
    {"tracker.table_drops", &TrackerStats::table_drops},
};

constexpr StageCounter<FlowTableStats> kFlowTableCounters[] = {
    {"flow.inserts", &FlowTableStats::inserts},
    {"flow.hits", &FlowTableStats::hits},
    {"flow.evictions_stale", &FlowTableStats::evictions_stale},
    {"flow.insert_failures", &FlowTableStats::insert_failures},
    {"flow.erases", &FlowTableStats::erases},
    {"flow.tag_mismatches", &FlowTableStats::tag_mismatches},
    {"flow.sweep_evictions", &FlowTableStats::sweep_evictions},
};

/// In-flow RTT kernel counters (all zero with flow.inflow_rtt off).
constexpr StageCounter<InflowStats> kInflowCounters[] = {
    {"flow.ts_matches", &InflowStats::ts_matches},
    {"flow.ts_ring_evictions", &InflowStats::ts_ring_evictions},
    {"flow.ts_wraps", &InflowStats::ts_wraps},
    {"flow.inflow_samples", &InflowStats::inflow_samples},
    {"flow.one_sided_samples", &InflowStats::one_sided_samples},
    {"flow.inflow_rate_limited", &InflowStats::rate_limited},
};

}  // namespace

RuruPipeline::RuruPipeline(PipelineConfig config, const GeoDatabase& geo, const AsDatabase& as,
                           const Geo6Database* geo6)
    : config_(config),
      geo_(geo),
      as_(as),
      pool_(config.mempool_size, config.mbuf_size),
      link_meter_(config.link_meter_window),
      // One fan-in lane per worker lcore: worker q is the sole producer
      // on lane q of every subscription, so N workers flushing batches
      // never share a ring cursor.
      bus_(4096, config.num_queues),
      tsdb_(TsdbOptions{config.tsdb_shards, config.tsdb_chunk_points}) {
  // Topology validation: a pin list must cover exactly the workers, or
  // the workers plus the enrichment threads.  (A wrong-length list is a
  // config bug — silently pinning the wrong threads would be worse than
  // failing loudly.)
  const std::size_t enrichers =
      config_.enrichment_threads == 0 ? 1 : config_.enrichment_threads;
  if (!config_.pin_cpus.empty() && config_.pin_cpus.size() != config_.num_queues &&
      config_.pin_cpus.size() != config_.num_queues + enrichers) {
    throw std::invalid_argument(
        "pin_cpus must be empty, num_queues long, or num_queues + enrichment_threads long (got " +
        std::to_string(config_.pin_cpus.size()) + " pins for " +
        std::to_string(config_.num_queues) + " workers + " + std::to_string(enrichers) +
        " enrichers)");
  }
  // Flight recorder first: stages constructed below take handles into
  // its rings.  With sample_n == 0 every handle is inert and the NIC
  // never stamps.
  tracer_.configure(obs::TracerConfig{config_.trace_sample_n, config_.trace_ring_capacity});
  // One timebase for bus stamps, queue-wait, transit and trace spans:
  // the calibrated TSC clock (anchored to steady_clock's epoch, so the
  // swap is invisible to existing metrics consumers).
  if (config_.metrics_enabled || tracer_.enabled()) {
    bus_.set_stamp_clock(&obs::trace_clock());
  }

  NicConfig nic_cfg;
  nic_cfg.num_queues = config_.num_queues;
  nic_cfg.queue_depth = config_.queue_depth;
  nic_cfg.rss_key = config_.rss_key;
  nic_cfg.trace_sample_n = tracer_.enabled() ? config_.trace_sample_n : 0;
  nic_ = std::make_unique<SimNic>(nic_cfg, pool_);

  // The windowed detectors raise each alert as its window closes: the
  // SYN-flood detector on a worker thread, conn-count on an enricher.
  const AlertSink raise_alert = [this](Alert a) { raise(std::move(a)); };
  if (config_.enable_synflood) {
    synflood_ = std::make_unique<SynFloodDetector>(config_.synflood, raise_alert);
  }
  if (config_.enable_conncount) {
    conncount_ = std::make_unique<ConnCountDetector>(config_.conncount, raise_alert);
  }
  if (config_.enable_ewma) ewma_ = std::make_unique<EwmaDetector>(config_.ewma);
  if (config_.enable_periodic) {
    periodic_ = std::make_unique<PeriodicSpikeDetector>(config_.periodic);
  }

  // One worker per RX queue, publishing batched measurements onto the
  // bus: one frame per accumulator flush, weighted by its sample count
  // so every bus counter stays denominated in samples.
  workers_.reserve(config_.num_queues);
  InflowConfig inflow;
  inflow.enabled = config_.inflow_rtt;
  inflow.ring_entries = config_.ts_ring_entries;
  inflow.min_interval = Duration::from_us(static_cast<std::int64_t>(config_.inflow_min_interval_us));
  for (std::uint16_t q = 0; q < config_.num_queues; ++q) {
    auto worker = std::make_unique<QueueWorker>(*nic_, q, config_.flow_table_capacity, nullptr,
                                                config_.flow_stale_after,
                                                config_.flow_probe_window, inflow);
    worker->set_fast_path(config_.worker_fast_path);
    worker->set_loop_kernel(config_.worker_vector_loop ? QueueWorker::LoopKernel::kVector
                                                       : QueueWorker::LoopKernel::kScalar);
    worker->set_prefetch_depth(config_.worker_prefetch_depth);
    worker->set_batch_sink(
        [this, q](std::span<const LatencySample> samples) {
          Message m = encode_latency_batch(samples);
          // Publish stamp (anchors bus queue wait, end-to-end transit
          // and the bus trace span — capture time is virtual in replay,
          // so transit cannot start at the capture stamp) comes from
          // the socket's stamp clock: the calibrated TSC clock, one
          // timebase for metrics and spans.  Worker q is lane q's only
          // publisher: the fan-in ticket CAS is uncontended no matter
          // how many workers flush at once.
          bus_.publish_lane_stamped(q, m, samples.size());
          if (synflood_) synflood_->on_completions(samples);
        },
        config_.bus_batch_size, config_.bus_batch_linger);
    if (synflood_) {
      // One detector lock per burst of SYNs, not per SYN: the workers
      // share it, and a per-SYN lock made a SYN-heavy worker slower than
      // the producer feeding it.
      worker->set_syn_batch_sink(
          [this](std::span<const SynEvent> syns) { synflood_->on_syns(syns); });
    }
    workers_.push_back(std::move(worker));
  }
  if (tracer_.enabled()) {
    for (std::uint16_t q = 0; q < config_.num_queues; ++q) {
      workers_[q]->set_trace(tracer_.ring("worker.q" + std::to_string(q)),
                             config_.trace_sample_n);
    }
    // The TSDB sink runs on whichever enrichment thread carries the
    // sample, so its ring is the one multi-producer (locked) ring.
    sink_trace_ = tracer_.shared_ring("tsdb.sink");
  }

  enrichment_sub_ = bus_.subscribe(std::string(kLatencyTopic), config_.bus_hwm);
  enrichment_ = std::make_unique<EnrichmentPool>(enrichment_sub_, geo_, as_,
                                                 config_.enrichment_threads, geo6);
  register_metrics();
  wire_sinks();

  if (config_.watchdog_enabled) {
    obs::WatchdogConfig wc;
    wc.check_interval = config_.watchdog_interval;
    wc.stall_after = config_.watchdog_stall_after;
    watchdog_ = std::make_unique<obs::Watchdog>(wc, &tracer_);
    // Heartbeats: each stage's own progress counter.  Worker polls and
    // snapshot ticks must always advance (a parked worker still polls
    // once per park timeout, a timer ticks); enrichment and the TSDB
    // sink are only stalled if frozen *with* bus backlog — an idle
    // pipeline is healthy.
    for (std::uint16_t q = 0; q < config_.num_queues; ++q) {
      QueueWorker* w = workers_[q].get();
      watchdog_->add_stage("worker.q" + std::to_string(q),
                           [w] { return w->stats().polls.load(); });
    }
    watchdog_->add_stage(
        "enrich", [this] { return enrichment_->processed(); },
        [this] { return static_cast<double>(enrichment_sub_->pending()); });
    if (snapshot_timer_) {
      watchdog_->add_stage("snapshot", [this] { return snapshot_timer_->ticks(); });
    }
    watchdog_->add_stage(
        "tsdb", [this] { return tsdb_.points_written(); },
        [this] { return static_cast<double>(enrichment_sub_->pending()); });
    watchdog_->set_report_sink([this](const obs::WatchdogReport& r) {
      // The flight record itself goes through the logger (the stall
      // summary line was already logged by the watchdog) ...
      RURU_LOG(kWarn, "watchdog") << "\n" << r.dump;
      // ... and the event lands in the pipeline's own TSDB as a
      // ruru.health.* series, same self-ingest pattern as ruru.self.*.
      TagSet tags;
      tags.add("stage", r.stage.empty() ? "-" : r.stage).add("reason", r.reason);
      tsdb_.write("ruru.health." + r.reason, tags, obs::trace_clock().now(),
                  r.reason == "stall" ? r.stalled_for.to_sec() : 1.0);
    });
  }
}

void RuruPipeline::register_metrics() {
  // Callback metrics over the stages' own single-writer StatCells: the
  // data path is not instrumented twice, and a snapshot reads live
  // values race-free. Registered unconditionally — polling only happens
  // at snapshot time, and summary() is a view over these.
  // NIC counters merge the whole-port shard and every producer-lane
  // shard (stats_totals), so the numbers stay truthful under both
  // single-producer and sharded injection topologies.
  for (const auto& c : kNicCounters) {
    metrics_.register_counter_fn(c.name, [this, cell = c.cell] {
      return (nic_->stats_totals().*cell).load();
    });
  }
  metrics_.register_counter_fn("mempool.alloc_failures",
                               [this] { return pool_.alloc_failures(); });
  for (std::uint16_t q = 0; q < config_.num_queues; ++q) {
    metrics_.register_gauge_fn("nic.queue_occupancy.q" + std::to_string(q), [this, q] {
      return static_cast<double>(nic_->queue_occupancy(q));
    });
  }

  // Worker / tracker / flow-table / in-flow counters, summed across
  // queues.  `of` picks the stats struct a table's cells live in.
  const auto sum_workers = [this](const auto& table, auto of) {
    for (const auto& c : table) {
      metrics_.register_counter_fn(c.name, [this, of, cell = c.cell] {
        std::uint64_t total = 0;
        for (const auto& w : workers_) total += (of(*w).*cell).load();
        return total;
      });
    }
  };
  sum_workers(kWorkerCounters, [](const QueueWorker& w) -> const WorkerStats& {
    return w.stats();
  });
  for (std::size_t i = 0; i < kParseNames.size(); ++i) {
    metrics_.register_counter_fn(kParseNames[i], [this, i] {
      std::uint64_t total = 0;
      for (const auto& w : workers_) total += w->stats().parse_status[i].load();
      return total;
    });
  }
  sum_workers(kTrackerCounters, [](const QueueWorker& w) -> const TrackerStats& {
    return w.tracker_stats();
  });
  sum_workers(kFlowTableCounters, [](const QueueWorker& w) -> const FlowTableStats& {
    return w.tracker().table().stats();
  });
  sum_workers(kInflowCounters, [](const QueueWorker& w) -> const InflowStats& {
    return w.tracker().inflow_stats();
  });
  // Per-stage thread CPU, read live from the threads' CPU clocks.
  metrics_.register_counter_fn("worker.cpu_ns", [this] { return lcores_.cpu_ns(); });
  metrics_.register_gauge_fn("flow.entries", [this] {
    std::size_t total = 0;
    for (const auto& w : workers_) total += w->tracker().table().size();
    return static_cast<double>(total);
  });

  // Bus / enrichment / storage / alerting — all backed by atomics or
  // mutex-guarded accessors, safe from the snapshot thread.
  metrics_.register_counter_fn("bus.published", [this] { return bus_.published(); });
  metrics_.register_counter_fn("bus.alerts_published", [this] {
    return alerts_published_.load(std::memory_order_relaxed);
  });
  metrics_.register_counter_fn("bus.delivered",
                               [this] { return enrichment_sub_->delivered(); });
  metrics_.register_counter_fn("bus.dropped", [this] { return enrichment_sub_->dropped(); });
  metrics_.register_gauge_fn("bus.pending", [this] {
    return static_cast<double>(enrichment_sub_->pending());
  });
  metrics_.register_counter_fn("enrich.processed", [this] { return enrichment_->processed(); });
  metrics_.register_counter_fn("enrich.decode_failures",
                               [this] { return enrichment_->decode_failures(); });
  metrics_.register_counter_fn("enrich.parks", [this] { return enrichment_sub_->parks(); });
  metrics_.register_counter_fn("enrich.cpu_ns", [this] { return enrichment_->cpu_ns(); });
  metrics_.register_counter_fn("enrich.unlocated", [this] {
    return enrichment_->combined_stats().unlocated.load();
  });
  metrics_.register_counter_fn("enrich.cache_hits", [this] {
    return enrichment_->combined_stats().cache_hits.load();
  });
  metrics_.register_counter_fn("enrich.cache_misses", [this] {
    return enrichment_->combined_stats().cache_misses.load();
  });
  metrics_.register_counter_fn("tsdb.points", [this] { return tsdb_.points_written(); });
  metrics_.register_counter_fn("alerts.raised",
                               [this] { return static_cast<std::uint64_t>(alerts_.count()); });
  // Self-health: flight-recorder volume and watchdog verdicts.  The
  // watchdog is constructed after this runs, hence the null guards.
  metrics_.register_counter_fn("trace.events", [this] { return tracer_.events_emitted(); });
  metrics_.register_counter_fn("health.stalls", [this] {
    return watchdog_ ? watchdog_->stalls_detected() : 0;
  });
  metrics_.register_counter_fn("health.dumps", [this] {
    return watchdog_ ? watchdog_->dumps_taken() : 0;
  });

  // Enrichment-side hooks: histograms when metrics are on, the flight
  // recorder's per-worker span ring when tracing is on — either alone
  // installs the factory.
  const bool tracing = tracer_.enabled();
  if (config_.metrics_enabled || tracing) {
    enrichment_->set_obs_factory([this, tracing](std::size_t i) {
      PoolObs o;
      if (config_.metrics_enabled) {
        o.queue_wait = metrics_.histogram("bus.queue_wait_ns", i);
        o.enrich_batch = metrics_.histogram("enrich.batch_ns", i);
        o.transit = metrics_.histogram("pipeline.transit_ns", i);
        o.transit_sample_every = config_.transit_sample_every;
      }
      if (tracing) {
        o.trace = tracer_.ring("enrich.w" + std::to_string(i));
        o.trace_sample_n = config_.trace_sample_n;
      }
      return o;
    });
  }

  if (!config_.metrics_enabled) return;

  // Hot-path latency histograms: one shard per writer thread, handed to
  // each stage before it runs.
  for (std::uint16_t q = 0; q < config_.num_queues; ++q) {
    WorkerObs wobs;
    wobs.poll_batch = metrics_.histogram("worker.poll_batch", q);
    wobs.batch_fill = metrics_.histogram("worker.batch_fill", q);
    if (config_.inflow_rtt) {
      wobs.inflow_rtt = metrics_.histogram("flow.inflow_rtt_ns", q);
      wobs.one_sided_delta = metrics_.histogram("flow.one_sided_delta_ns", q);
    }
    if (config_.worker_vector_loop && config_.worker_fast_path) {
      wobs.burst_candidates = metrics_.histogram("worker.burst_candidates", q);
      wobs.candidate_run_len = metrics_.histogram("worker.candidate_run_len", q);
    }
    wobs.flow.probe_groups = metrics_.histogram("flow.probe_groups", q);
    wobs.flow.group_occupancy = metrics_.histogram("flow.group_occupancy", q);
    workers_[q]->set_obs(wobs);
  }
  // TSDB writes happen on whichever enrichment thread runs the sink, so
  // this one shard is shared (record_shared) — the write itself is
  // mutex-guarded, contention is already paid.
  tsdb_write_hist_ = metrics_.histogram("tsdb.write_ns");

  snapshot_timer_ = std::make_unique<obs::SnapshotTimer>(metrics_, config_.metrics_interval);
  if (config_.metrics_self_ingest) {
    snapshot_timer_->add_exporter(std::make_shared<obs::SelfIngestExporter>(tsdb_));
  }
  if (!config_.metrics_prometheus_path.empty()) {
    snapshot_timer_->add_exporter(
        std::make_shared<obs::PrometheusExporter>(config_.metrics_prometheus_path));
  }
  if (!config_.metrics_json_path.empty()) {
    snapshot_timer_->add_exporter(
        std::make_shared<obs::JsonLinesExporter>(config_.metrics_json_path));
  }
}

void RuruPipeline::wire_sinks() {
  // Route-keyed series cache: a sample's tags are a pure function of
  // (client city, server city, client AS, server AS), plus the measured
  // half for in-flow and one-sided samples.  Each route resolves each of
  // its series classes once — the handshake triple, or one of the four
  // in-flow classes (kInflow|kOneSided) x (toward_client) — so the
  // steady-state TSDB path is SeriesId appends: no strings, no TagSet,
  // no canonicalization.  Keyed exactly (no lossy hashing): interned
  // city ids + ASNs, with unlocated endpoints collapsed to the same
  // sentinel the "?" tag value collapses them to.
  using RouteKey = std::pair<std::uint64_t, std::uint64_t>;
  struct RouteCache {
    struct Hash {
      std::size_t operator()(const RouteKey& k) const {
        std::uint64_t x = k.first ^ (k.second * 0x9E3779B97F4A7C15ull);
        x ^= x >> 33;
        x *= 0xFF51AFD7ED558CCDull;
        x ^= x >> 33;
        return static_cast<std::size_t>(x);
      }
    };
    /// Per route: class 0 holds the handshake triple, classes 1..4 one
    /// in-flow series each (element 0); empty until first resolved.
    using Series = std::array<std::optional<std::array<SeriesId, 3>>, 5>;
    std::mutex mu;
    std::unordered_map<RouteKey, Series, Hash> map;
  };
  // Series ids for `s`'s route and class; a cache hit does no string or
  // TagSet work.
  auto route_series = [this, routes = std::make_shared<RouteCache>()](const EnrichedSample& s) {
    const RouteKey key{city_pair_key(s),
                       (std::uint64_t{s.client.asn} << 32) | std::uint64_t{s.server.asn}};
    const std::size_t cls = s.kind == SampleKind::kHandshake
                                ? 0
                                : 1 + (s.kind == SampleKind::kInflow ? 0 : 2) +
                                      (s.toward_client ? 1 : 0);
    {
      std::lock_guard lock(routes->mu);
      if (const auto it = routes->map.find(key); it != routes->map.end() && it->second[cls]) {
        return *it->second[cls];
      }
    }
    // First sample of this route and class: build the tags, resolve once.
    TagSet tags;
    tags.add("src_city", std::string(name_of(s.client.city_key())))
        .add("dst_city", std::string(name_of(s.server.city_key())))
        .add("src_as", std::to_string(s.client.asn))
        .add("dst_as", std::to_string(s.server.asn));
    std::array<SeriesId, 3> sids{};
    if (cls == 0) {
      sids = {tsdb_.series("total_ms", tags), tsdb_.series("internal_ms", tags),
              tsdb_.series("external_ms", tags)};
    } else {
      tags.add("half", s.toward_client ? "internal" : "external");
      sids[0] = tsdb_.series(s.kind == SampleKind::kInflow ? "inflow_ms" : "onesided_ms", tags);
    }
    std::lock_guard lock(routes->mu);
    routes->map[key][cls] = sids;
    return sids;
  };
  enrichment_->add_sink([this, route_series](const EnrichedSample& s) {
    if (s.kind != SampleKind::kHandshake) {
      // In-flow and one-sided samples carry one measured half, not a
      // three-way handshake: they go to their own TSDB measurements
      // ("inflow_ms" / "onesided_ms", tagged with which half) and stay
      // out of the aggregators and anomaly detectors, whose models
      // (pair RTT means, completion counts) assume handshake triples.
      tsdb_.append(route_series(s)[0], s.completed_at, s.total.to_ms());
      return;
    }
    city_pairs_.add(s);
    as_pairs_.add(s);
    arcs_.add(s);

    const std::array<SeriesId, 3> sids = route_series(s);
    // TSC timebase for both the write histogram and the tsdb span — the
    // same clock every other stage stamps with.
    const bool timed = tsdb_write_hist_.attached();
    const bool traced = sink_trace_.attached() && s.trace_id != 0;
    Timestamp t0{};
    if (timed || traced) t0 = obs::trace_clock().now();
    tsdb_.append(sids[0], s.completed_at, s.total.to_ms());
    tsdb_.append(sids[1], s.completed_at, s.internal.to_ms());
    tsdb_.append(sids[2], s.completed_at, s.external.to_ms());
    if (timed || traced) {
      const Timestamp t1 = obs::trace_clock().now();
      if (timed) tsdb_write_hist_.record_shared(t1 - t0);
      if (traced) {
        sink_trace_.span(obs::TraceStage::kTsdb, s.trace_id, t0.ns, (t1 - t0).ns, 3 /*points*/,
                         s.queue_id);
      }
    }

    if (ewma_) {
      std::optional<Alert> alert;
      {
        std::lock_guard lock(ewma_mu_);
        alert = ewma_->update(s.completed_at, s.total.to_ms());
      }
      if (alert) {
        alert->subject = pair_label(city_pair_key(s));
        raise(std::move(*alert));
      }
    }
    if (periodic_) {
      // Keyed by *start* time: the firewall delayed connections opened
      // inside the window; their completions land ~4 s later and would
      // smear across buckets.
      std::lock_guard lock(periodic_mu_);
      periodic_->add(s.started_at, s.total);
    }
    if (conncount_) conncount_->add(s);
  });
}

void RuruPipeline::raise(Alert alert) {
  // Alerts decided after the bus closed (the last conn-count window, the
  // periodic findings) reach the log only.
  if (!bus_closed_.load(std::memory_order_acquire)) {
    bus_.publish(encode_alert(alert));  // live "ruru.alerts" feed
    alerts_published_.fetch_add(1, std::memory_order_relaxed);
  }
  alerts_.raise(std::move(alert));
}

RuruPipeline::~RuruPipeline() { finish(); }

void RuruPipeline::start() {
  if (started_) return;
  started_ = true;
  // Pin list layout (validated in the constructor): workers first, then
  // optionally one entry per enrichment thread.
  if (config_.pin_cpus.size() > config_.num_queues) {
    enrichment_->set_pin_cpus({config_.pin_cpus.begin() + config_.num_queues,
                               config_.pin_cpus.end()});
  }
  enrichment_->start();
  for (std::uint16_t q = 0; q < config_.num_queues; ++q) {
    QueueWorker* w = workers_[q].get();
    const int cpu = config_.pin_cpus.empty() ? kNoCpuPin : config_.pin_cpus[q];
    lcores_.launch([w](std::uint32_t, const std::atomic<bool>& stop) { w->run(stop); }, cpu);
  }
  if (snapshot_timer_) snapshot_timer_->start();
  if (watchdog_) {
    watchdog_->start();
    obs::Watchdog::install_sigusr1(watchdog_.get());
  }
  RURU_LOG(kInfo, "core") << "pipeline started: " << config_.num_queues << " queues, "
                          << config_.enrichment_threads << " enrichment threads"
                          << (config_.pin_cpus.empty() ? "" : ", pinned topology");
}

bool RuruPipeline::inject(std::span<const std::uint8_t> frame, Timestamp rx_time) {
  link_meter_.on_packet(rx_time, frame.size());
  return nic_->inject(frame, rx_time);
}

std::size_t RuruPipeline::inject_burst(std::span<const RxFrame> frames, bool* queued) {
  // The meter sees the wire, not the queues: every frame counts even if
  // the NIC then drops it.
  meter_frames(frames);
  return nic_->inject_burst(frames, queued);
}

std::size_t RuruPipeline::inject_shard(std::uint16_t queue, std::span<const RxFrame> frames,
                                       bool* queued) {
  return nic_->inject_shard(queue, frames, queued);
}

void RuruPipeline::meter_frames(std::span<const RxFrame> frames) {
  for (const RxFrame& f : frames) link_meter_.on_packet(f.rx_time, f.data.size());
}

void RuruPipeline::finish() {
  if (!started_ || finished_) return;
  finished_ = true;

  // 0. Watchdog first: stages stopping below would read as stalls.
  if (watchdog_) {
    obs::Watchdog::install_sigusr1(nullptr);
    watchdog_->stop();
  }
  // 1. Workers drain their queues, then stop.
  lcores_.stop_and_join();
  // 2. Close the SYN-flood detector's last window (its workers have
  //    stopped) while the bus is still open, so "ruru.alerts"
  //    subscribers see its alerts.
  if (synflood_) synflood_->flush();
  // 3. Close the bus; enrichment workers drain the backlog and exit.
  //    (conncount/periodic are fed by enrichment, so they close after —
  //    their end-of-run alerts reach the log but not closed
  //    subscriptions.)
  bus_closed_.store(true, std::memory_order_release);
  bus_.close_all();
  enrichment_->stop();
  // Telemetry thread stops after the stages it watches drain; stop()
  // takes one final snapshot so exporters see the end-of-run totals.
  if (snapshot_timer_) snapshot_timer_->stop();
  if (conncount_) conncount_->flush();
  if (periodic_) {
    std::lock_guard lock(periodic_mu_);
    for (Alert& a : periodic_->alerts()) raise(std::move(a));
  }

  // 4. Persist link-load windows ("SNMP view, but per second").
  link_meter_.flush();
  TagSet tags;
  tags.add("port", "0");
  for (const auto& w : link_meter_.closed()) {
    tsdb_.write("link_mbps", tags, w.start, w.mbps());
    tsdb_.write("link_pps", tags, w.start, w.pps());
  }

  // 5. Apply the storage policy (continuous-query downsampling, then
  //    raw-sample retention anchored at the end of the last link-meter
  //    window).  Raw per-sample measurements: the handshake triple, then
  //    the in-flow and one-sided halves the sink writes.
  const std::vector<std::string> raw = {"total_ms", "internal_ms", "external_ms", "inflow_ms",
                                        "onesided_ms"};
  if (config_.downsample_window.ns > 0) {
    // Downsampling stays handshake-only (the first three); in-flow and
    // one-sided points are not rolled up, only aged out below.
    for (const std::string& m : std::span(raw).first(3)) {
      tsdb_.downsample(m, m + "_" + config_.downsample_stat, config_.downsample_window,
                       config_.downsample_stat);
    }
  }
  if (config_.retention_horizon.ns > 0 && !link_meter_.closed().empty()) {
    const Timestamp capture_end =
        link_meter_.closed().back().start + config_.link_meter_window;
    // Only raw per-sample series age out; downsampled and link series stay.
    tsdb_.enforce_retention(capture_end, config_.retention_horizon, raw);
  }

  // 6. Export the flight record now that every stage has emitted its
  //    last span.
  if (!config_.trace_json_path.empty() && tracer_.enabled()) {
    if (tracer_.export_chrome_json_file(config_.trace_json_path)) {
      RURU_LOG(kInfo, "core") << "flight record exported to " << config_.trace_json_path
                              << " (" << tracer_.events_emitted() << " events emitted)";
    } else {
      RURU_LOG(kWarn, "core") << "failed to export flight record to "
                              << config_.trace_json_path;
    }
  }

  RURU_LOG(kInfo, "core") << "pipeline finished: " << summary().to_string();
}

PipelineSummary RuruPipeline::summary() const {
  // A view over the metrics registry: the same callback metrics the
  // snapshot thread exports, merged once. One source of truth.
  const obs::MetricsSnapshot snap = metrics_.snapshot(Timestamp{});
  PipelineSummary s;
  for (const auto& c : kNicCounters) s.nic.*c.cell = snap.counter_or(c.name);
  for (const auto& c : kWorkerCounters) s.workers.*c.cell = snap.counter_or(c.name);
  for (std::size_t i = 0; i < kParseNames.size(); ++i) {
    s.workers.parse_status[i] = snap.counter_or(kParseNames[i]);
  }
  for (const auto& c : kTrackerCounters) s.tracker.*c.cell = snap.counter_or(c.name);
  s.mempool_alloc_failures = snap.counter_or("mempool.alloc_failures");
  const std::uint64_t alerts_published = snap.counter_or("bus.alerts_published");
  s.bus_alerts_published = alerts_published;
  s.bus_published = snap.counter_or("bus.published") - alerts_published;  // latency samples
  s.bus_dropped = snap.counter_or("bus.dropped");
  s.enriched = snap.counter_or("enrich.processed");
  s.decode_failures = snap.counter_or("enrich.decode_failures");
  s.enrich_parks = snap.counter_or("enrich.parks");
  s.worker_cpu_ns = snap.counter_or("worker.cpu_ns");
  s.enrich_cpu_ns = snap.counter_or("enrich.cpu_ns");
  s.unlocated = snap.counter_or("enrich.unlocated");
  s.tsdb_points = snap.counter_or("tsdb.points");
  s.alerts = snap.counter_or("alerts.raised");
  return s;
}

}  // namespace ruru
