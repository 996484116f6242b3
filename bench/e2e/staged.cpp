// Staged replay: the pipeline's stages as standalone objects, driven on
// one thread in stage order per 32-frame burst, with a span around every
// call into a module.  Layers are timed from outside, through their
// public functions; src/ carries no benchmark hooks.

#include <array>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "analytics/aggregator.hpp"
#include "analytics/enricher.hpp"
#include "anomaly/alert_codec.hpp"
#include "anomaly/conncount_detector.hpp"
#include "anomaly/ewma_detector.hpp"
#include "anomaly/synflood_detector.hpp"
#include "driver/mempool.hpp"
#include "driver/nic.hpp"
#include "e2e.hpp"
#include "flow/link_meter.hpp"
#include "flow/worker.hpp"
#include "msg/codec.hpp"
#include "msg/pubsub.hpp"
#include "obs/tsc_clock.hpp"
#include "tsdb/query.hpp"
#include "viz/arc_aggregator.hpp"

namespace ruru::e2e {

namespace {

enum Stage : std::uint8_t {
  kLinkMeter,      // producer: LinkMeter::on_packet per frame
  kInjectBurst,    // producer: SimNic::inject_burst
  kPoll,           // worker: QueueWorker::poll_once
  kPublish,        // worker, in the batch sink: encode_latency_batch + publish_lane_stamped
  kSynCompletion,  // worker, in the batch sink: SynFloodDetector::on_completion
  kOnSyn,          // worker, in the SYN sink: SynFloodDetector::on_syn
  kRecvDecode,     // enricher: Subscription::try_recv_shard + decode_latency_payload
  kEnrich,         // enricher: Enricher::enrich_batch
  kTsdb,           // enricher: TsdbEngine::series (once per route) + append
  kAggregate,      // enricher: LatencyAggregator::add x2
  kArcs,           // enricher: ArcAggregator::add
  kDetect,         // enricher: EwmaDetector::update + ConnCountDetector::add
  kStageCount,
};

constexpr std::array<const char*, kStageCount> kStageNames = {
    "driver.link_meter", "driver.inject_burst", "flow.poll_once",  "msg.publish",
    "anomaly.syn_completion", "anomaly.on_syn",  "msg.recv_decode", "analytics.enrich",
    "tsdb.write",        "analytics.aggregate", "viz.arcs",        "anomaly.detect"};

/// Spans of the measured pass.  Per-(stage, lane) totals cover every span;
/// the pre-sized buffer keeps the first `capacity` for the Chrome trace.
class SpanLog {
 public:
  struct Span {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int32_t parent = -1;  ///< buffer index, -1 = top level
    std::uint32_t burst = 0;
    Stage stage = kLinkMeter;
    std::uint8_t lane = 0;
  };
  struct Total {
    std::int64_t incl_ns = 0;
    std::int64_t self_ns = 0;  ///< minus the time its child spans cover
    std::uint64_t count = 0;
  };

  SpanLog(std::size_t capacity, std::size_t lanes) : totals_(lanes * kStageCount) {
    spans_.reserve(capacity);
  }

  void set_recording(bool on) { recording_ = on; }
  void set_burst(std::uint32_t burst) { burst_ = burst; }

  void begin(Stage stage, std::uint8_t lane) {
    if (!recording_) return;
    if (depth_ == open_.size()) throw std::logic_error("span nesting too deep");
    Open& o = open_[depth_];
    o = Open{stage, lane, 0, 0, -1};
    if (spans_.size() < spans_.capacity()) {
      o.index = static_cast<std::int32_t>(spans_.size());
      spans_.push_back({0, 0, depth_ > 0 ? open_[depth_ - 1].index : -1, burst_, stage, lane});
    }
    ++depth_;
    o.start = obs::trace_now_ns();  // last: the bookkeeping above is not the stage's
  }

  void end() {
    if (!recording_) return;
    const std::int64_t now = obs::trace_now_ns();
    const Open& o = open_[--depth_];
    const std::int64_t dur = now - o.start;
    Total& t = totals_[o.lane * kStageCount + o.stage];
    t.incl_ns += dur;
    t.self_ns += dur - o.child_ns;
    ++t.count;
    if (depth_ > 0) open_[depth_ - 1].child_ns += dur;
    if (o.index >= 0) {
      spans_[static_cast<std::size_t>(o.index)].start = o.start;
      spans_[static_cast<std::size_t>(o.index)].end = now;
    }
  }

  /// Drops the innermost open span (a call that found no work).
  void discard() {
    if (!recording_) return;
    const Open& o = open_[--depth_];
    if (o.index >= 0 && static_cast<std::size_t>(o.index) + 1 == spans_.size()) spans_.pop_back();
  }

  [[nodiscard]] const Total& total(Stage stage, std::size_t lane) const {
    return totals_[lane * kStageCount + stage];
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  struct Open {
    Stage stage;
    std::uint8_t lane;
    std::int64_t start;
    std::int64_t child_ns;
    std::int32_t index;
  };

  std::vector<Span> spans_;
  std::vector<Total> totals_;
  std::array<Open, 4> open_{};
  std::size_t depth_ = 0;
  std::uint32_t burst_ = 0;
  bool recording_ = false;
};

/// Chrome trace_event JSON (the format the flight recorder exports):
/// one track per lane, args carry the burst and the parent span.
bool write_chrome_trace(const std::string& path, const std::vector<SpanLog::Span>& spans,
                        std::size_t queues) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  const std::size_t lanes = queues + 2;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::string name = lane == 0           ? "producer"
                             : lane == lanes - 1 ? "enricher"
                                                 : "worker.q" + std::to_string(lane - 1);
    std::fprintf(f,
                 "{\"ph\":\"M\",\"pid\":1,\"tid\":%zu,\"name\":\"thread_name\","
                 "\"args\":{\"name\":\"%s\"}},\n",
                 lane, name.c_str());
  }
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanLog::Span& s = spans[i];
    std::fprintf(f,
                 "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"burst\":%u,\"parent\":%d}}%s\n",
                 static_cast<unsigned>(s.lane), kStageNames[s.stage],
                 static_cast<double>(s.start - t0) / 1e3,
                 static_cast<double>(s.end - s.start) / 1e3, s.burst, s.parent,
                 i + 1 == spans.size() ? "" : ",");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

/// The pipeline's sink chain keys TSDB series on the route; same key here.
struct RouteKey {
  std::uint64_t cities = 0;
  std::uint64_t asns = 0;
  bool operator==(const RouteKey&) const = default;
};
struct RouteHash {
  std::size_t operator()(const RouteKey& k) const {
    std::uint64_t x = k.cities ^ (k.asns * 0x9E3779B97F4A7C15ull);
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }
};

RouteKey route_key(const EnrichedSample& s) {
  constexpr std::uint64_t kUnlocated = 0xFFFF'FFFFull;
  return {((s.client.located ? std::uint64_t{s.client.city_id} : kUnlocated) << 32) |
              (s.server.located ? std::uint64_t{s.server.city_id} : kUnlocated),
          (std::uint64_t{s.client.asn} << 32) | std::uint64_t{s.server.asn}};
}

TagSet route_tags(const EnrichedSample& s) {
  TagSet tags;
  tags.add("src_city", std::string(s.client.located ? s.client.city() : "?"))
      .add("dst_city", std::string(s.server.located ? s.server.city() : "?"))
      .add("src_as", std::to_string(s.client.asn))
      .add("dst_as", std::to_string(s.server.asn));
  return tags;
}

std::string city_pair(const EnrichedSample& s) {
  return std::string(s.client.located ? s.client.city() : "?") + "|" +
         std::string(s.server.located ? s.server.city() : "?");
}

/// Standalone copies of every stage RuruPipeline wires, built from the
/// same PipelineConfig.
class StagedPipeline {
 public:
  StagedPipeline(const PipelineConfig& cfg, const World& world, std::size_t span_capacity)
      : cfg_(cfg),
        pool_(cfg.mempool_size, cfg.mbuf_size),
        nic_(NicConfig{cfg.num_queues, cfg.queue_depth, cfg.rss_key, 0, 0}, pool_),
        bus_(4096, cfg.num_queues),
        sub_(bus_.subscribe(std::string(kLatencyTopic), cfg.bus_hwm)),
        enricher_(world.geo, world.as),
        tsdb_(TsdbOptions{cfg.tsdb_shards, cfg.tsdb_chunk_points}),
        ewma_(cfg.ewma),
        conncount_(cfg.conncount),
        synflood_(cfg.synflood),
        meter_(cfg.link_meter_window),
        enricher_lane_(static_cast<std::uint8_t>(cfg.num_queues + 1)),
        log_(span_capacity, cfg.num_queues + 2u) {
    InflowConfig inflow;
    inflow.enabled = cfg.inflow_rtt;
    inflow.ring_entries = cfg.ts_ring_entries;
    inflow.min_interval =
        Duration::from_us(static_cast<std::int64_t>(cfg.inflow_min_interval_us));
    for (std::uint16_t q = 0; q < cfg.num_queues; ++q) {
      auto w = std::make_unique<QueueWorker>(nic_, q, cfg.flow_table_capacity, nullptr,
                                             cfg.flow_stale_after, cfg.flow_probe_window, inflow);
      w->set_fast_path(cfg.worker_fast_path);
      w->set_loop_kernel(cfg.worker_vector_loop ? QueueWorker::LoopKernel::kVector
                                                : QueueWorker::LoopKernel::kScalar);
      w->set_prefetch_depth(cfg.worker_prefetch_depth);
      const auto lane = static_cast<std::uint8_t>(q + 1);
      w->set_batch_sink(
          [this, q, lane](std::span<const LatencySample> samples) {
            log_.begin(kPublish, lane);
            Message m = encode_latency_batch(samples);
            bus_.publish_lane_stamped(q, m, samples.size());
            log_.end();
            log_.begin(kSynCompletion, lane);
            for (const LatencySample& s : samples) {
              if (s.kind == SampleKind::kHandshake && s.server.is_v4()) {
                synflood_.on_completion(s.ack_time, s.server.v4);
              }
            }
            log_.end();
            counts_.published += samples.size();
          },
          cfg.bus_batch_size, cfg.bus_batch_linger);
      w->set_syn_sink([this, lane](Timestamp t, Ipv4Address server) {
        log_.begin(kOnSyn, lane);
        synflood_.on_syn(t, server);
        log_.end();
      });
      workers_.push_back(std::move(w));
    }
    decoded_.reserve(kMaxLatencyBatch);
    enriched_.reserve(kMaxLatencyBatch);
  }

  /// Replays the trace once with every rx time shifted by `shift`.
  void run_pass(const Trace& trace, Duration shift, bool measured) {
    log_.set_recording(measured);
    const std::vector<TimedFrame>& frames = trace.frames;
    std::array<RxFrame, QueueWorker::kBurst> burst;
    std::uint32_t b = 0;
    for (std::size_t off = 0; off < frames.size(); off += burst.size(), ++b) {
      const std::size_t m = std::min(burst.size(), frames.size() - off);
      for (std::size_t i = 0; i < m; ++i) {
        burst[i] = RxFrame{frames[off + i].frame, frames[off + i].timestamp + shift};
      }
      log_.set_burst(b);

      log_.begin(kLinkMeter, 0);
      for (std::size_t i = 0; i < m; ++i) {
        meter_.on_packet(burst[i].rx_time, burst[i].data.size());
      }
      log_.end();
      log_.begin(kInjectBurst, 0);
      const std::size_t got = nic_.inject_burst({burst.data(), m});
      log_.end();
      // The queues are drained after every burst, so nothing is refused.
      if (got != m) throw std::runtime_error("staged replay: NIC refused frames");

      for (std::uint16_t q = 0; q < cfg_.num_queues; ++q) {
        while (true) {
          log_.begin(kPoll, static_cast<std::uint8_t>(q + 1));
          const std::size_t n = workers_[q]->poll_once();
          log_.end();
          if (n == 0) break;
        }
      }
      drain_bus();

      std::size_t resident = 0;
      for (const auto& w : workers_) resident += w->tracker().table().size();
      if (measured) peak_resident_ = std::max(peak_resident_, resident);
    }
    log_.set_recording(false);
  }

  /// Closes the link meter and stores its windows, as finish() does.
  void finish() {
    meter_.flush();
    TagSet tags;
    tags.add("port", "0");
    for (const LinkWindow& w : meter_.closed()) {
      tsdb_.write("link_mbps", tags, w.start, w.mbps());
      tsdb_.write("link_pps", tags, w.start, w.pps());
    }
  }

  /// Samples through each stage so far.
  struct Counts {
    std::uint64_t published = 0;
    std::uint64_t decoded = 0;
    std::uint64_t decode_failures = 0;
    std::uint64_t handshakes = 0;  ///< at the sinks
    std::uint64_t inflow = 0;      ///< at the sinks
  };

  const Counts& counts() const { return counts_; }
  const SpanLog& log() const { return log_; }
  const std::vector<std::unique_ptr<QueueWorker>>& workers() const { return workers_; }
  const TsdbEngine& tsdb() const { return tsdb_; }
  std::uint8_t enricher_lane() const { return enricher_lane_; }
  std::size_t peak_resident() const { return peak_resident_; }

 private:
  void drain_bus() {
    const std::uint8_t lane = enricher_lane_;
    while (true) {
      log_.begin(kRecvDecode, lane);
      std::optional<Message> msg = sub_->try_recv_shard(0, 1);
      if (!msg) {
        log_.discard();
        return;
      }
      decoded_.clear();
      const bool ok = msg->frames.size() >= 2 && decode_latency_payload(msg->frames[1], decoded_);
      log_.end();
      if (!ok) {
        ++counts_.decode_failures;
        continue;
      }
      counts_.decoded += decoded_.size();
      log_.begin(kEnrich, lane);
      enriched_.clear();
      enricher_.enrich_batch(decoded_, enriched_);
      log_.end();
      sink(lane);
    }
  }

  /// The calls RuruPipeline's sink makes for each enriched sample, grouped
  /// by module per message; each module still sees samples in order.
  void sink(std::uint8_t lane) {
    std::size_t handshakes = 0;
    log_.begin(kTsdb, lane);
    for (const EnrichedSample& s : enriched_) {
      const RouteKey key = route_key(s);
      if (s.kind != SampleKind::kHandshake) {
        const std::size_t cls = (s.kind == SampleKind::kInflow ? 0 : 2) + (s.toward_client ? 1 : 0);
        InflowSeries& e = inflow_series_[key];
        if (!e.have[cls]) {
          TagSet tags = route_tags(s);
          tags.add("half", s.toward_client ? "internal" : "external");
          e.sid[cls] =
              tsdb_.series(s.kind == SampleKind::kInflow ? "inflow_ms" : "onesided_ms", tags);
          e.have[cls] = true;
        }
        tsdb_.append(e.sid[cls], s.completed_at, s.total.to_ms());
        ++counts_.inflow;
        continue;
      }
      ++handshakes;
      auto it = handshake_series_.find(key);
      if (it == handshake_series_.end()) {
        const TagSet tags = route_tags(s);
        it = handshake_series_
                 .emplace(key, std::array<SeriesId, 3>{tsdb_.series("total_ms", tags),
                                                       tsdb_.series("internal_ms", tags),
                                                       tsdb_.series("external_ms", tags)})
                 .first;
      }
      tsdb_.append(it->second[0], s.completed_at, s.total.to_ms());
      tsdb_.append(it->second[1], s.completed_at, s.internal.to_ms());
      tsdb_.append(it->second[2], s.completed_at, s.external.to_ms());
    }
    log_.end();
    counts_.handshakes += handshakes;
    if (handshakes == 0) return;

    log_.begin(kAggregate, lane);
    for (const EnrichedSample& s : enriched_) {
      if (s.kind != SampleKind::kHandshake) continue;
      city_pairs_.add(s);
      as_pairs_.add(s);
    }
    log_.end();
    log_.begin(kArcs, lane);
    for (const EnrichedSample& s : enriched_) {
      if (s.kind == SampleKind::kHandshake) arcs_.add(s);
    }
    log_.end();
    log_.begin(kDetect, lane);
    for (const EnrichedSample& s : enriched_) {
      if (s.kind != SampleKind::kHandshake) continue;
      if (std::optional<Alert> alert = ewma_.update(s.completed_at, s.total.to_ms())) {
        alert->subject = city_pair(s);
        bus_.publish(encode_alert(*alert));
        alerts_.raise(std::move(*alert));
      }
      conncount_.add(s);
    }
    log_.end();
  }

  struct InflowSeries {
    std::array<SeriesId, 4> sid{};
    std::array<bool, 4> have{};
  };

  PipelineConfig cfg_;
  Mempool pool_;
  SimNic nic_;
  std::vector<std::unique_ptr<QueueWorker>> workers_;
  PubSocket bus_;
  std::shared_ptr<Subscription> sub_;
  Enricher enricher_;
  TsdbEngine tsdb_;
  std::unordered_map<RouteKey, std::array<SeriesId, 3>, RouteHash> handshake_series_;
  std::unordered_map<RouteKey, InflowSeries, RouteHash> inflow_series_;
  LatencyAggregator city_pairs_{LatencyAggregator::Mode::kCityPair};
  LatencyAggregator as_pairs_{LatencyAggregator::Mode::kAsPair};
  ArcAggregator arcs_;
  EwmaDetector ewma_;
  ConnCountDetector conncount_;
  SynFloodDetector synflood_;
  AlertLog alerts_;
  LinkMeter meter_;
  std::vector<LatencySample> decoded_;
  std::vector<EnrichedSample> enriched_;
  std::uint8_t enricher_lane_;
  std::size_t peak_resident_ = 0;
  Counts counts_;
  SpanLog log_;
};

/// Sums of the worker counters that the measured pass moves.
struct WorkerTotals {
  std::uint64_t packets = 0, skips = 0, syns = 0, insert_failures = 0;

  static WorkerTotals of(const std::vector<std::unique_ptr<QueueWorker>>& workers) {
    WorkerTotals t;
    for (const auto& w : workers) {
      t.packets += w->stats().packets;
      t.skips += w->stats().fast_path_skips;
      t.syns += w->tracker_stats().syn_seen;
      t.insert_failures += w->tracker().table().stats().insert_failures;
    }
    return t;
  }
};

}  // namespace

StagedResult run_staged(const Workload& w, const Trace& trace, const std::string& trace_json,
                        Report& report) {
  const PipelineConfig cfg = pipeline_config(w);
  const World world = scenario_world();
  constexpr std::size_t kSpanCapacity = 1 << 16;
  auto staged = std::make_unique<StagedPipeline>(cfg, world, kSpanCapacity);
  StagedPipeline& p = *staged;

  p.run_pass(trace, Duration{0}, false);  // warm pass
  const WorkerTotals before = WorkerTotals::of(p.workers());
  const std::uint64_t points_before = p.tsdb().points_written();
  const StagedPipeline::Counts n0 = p.counts();
  p.run_pass(trace, trace.pass_shift, true);
  const WorkerTotals after = WorkerTotals::of(p.workers());
  const StagedPipeline::Counts& n1 = p.counts();

  StagedResult r;
  r.counts.handshakes = n1.handshakes - n0.handshakes;
  r.counts.inflow = n1.inflow - n0.inflow;
  r.counts.tsdb_points = p.tsdb().points_written() - points_before;
  p.finish();
  r.counts.series = p.tsdb().series_count();

  const SpanLog& log = p.log();
  const double frames = static_cast<double>(trace.frames.size());
  const std::uint8_t e = p.enricher_lane();
  const auto incl = [&](Stage s, std::size_t lane) {
    return static_cast<double>(log.total(s, lane).incl_ns);
  };
  double worker_max = 0.0;
  double poll_self = 0.0;
  double publish = 0.0;
  double syn_completion = 0.0;
  double on_syn = 0.0;
  std::uint64_t syn_calls = 0;
  for (std::size_t q = 0; q < cfg.num_queues; ++q) {
    worker_max = std::max(worker_max, incl(kPoll, q + 1));
    poll_self += static_cast<double>(log.total(kPoll, q + 1).self_ns);
    publish += incl(kPublish, q + 1);
    syn_completion += incl(kSynCompletion, q + 1);
    on_syn += incl(kOnSyn, q + 1);
    syn_calls += log.total(kOnSyn, q + 1).count;
  }
  const double enricher = incl(kRecvDecode, e) + incl(kEnrich, e) + incl(kTsdb, e) +
                          incl(kAggregate, e) + incl(kArcs, e) + incl(kDetect, e);
  r.producer_ns_per_frame = (incl(kLinkMeter, 0) + incl(kInjectBurst, 0)) / frames;
  r.worker_max_ns_per_frame = worker_max / frames;
  r.enricher_ns_per_frame = enricher / frames;

  const double hs = static_cast<double>(r.counts.handshakes);
  const double points = static_cast<double>(r.counts.tsdb_points);
  const double decoded = static_cast<double>(n1.decoded - n0.decoded);
  const auto layer = [&](const char* name, double value, const char* unit) {
    report.per_layer.push_back({name, value, unit});
  };
  layer("driver.inject_ns_per_frame.isolated", incl(kInjectBurst, 0) / frames, "ns");
  layer("flow.poll_ns_per_frame", poll_self / frames, "ns");
  layer("flow.fast_path_skip_frac",
        ratio(static_cast<double>(after.skips - before.skips),
              static_cast<double>(after.packets - before.packets)),
        "ratio");
  layer("flow.insert_fail_per_ksyn",
        1000.0 * ratio(static_cast<double>(after.insert_failures - before.insert_failures),
                       static_cast<double>(after.syns - before.syns)),
        "count");
  layer("flow.resident_flows", static_cast<double>(p.peak_resident()), "count");
  layer("msg.publish_ns_per_sample",
        ratio(publish, static_cast<double>(n1.published - n0.published)), "ns");
  layer("msg.recv_decode_ns_per_sample", ratio(incl(kRecvDecode, e), decoded), "ns");
  layer("analytics.enrich_ns_per_sample", ratio(incl(kEnrich, e), decoded), "ns");
  layer("analytics.aggregate_ns_per_sample", ratio(incl(kAggregate, e), hs), "ns");
  layer("viz.arcs_ns_per_sample", ratio(incl(kArcs, e), hs), "ns");
  layer("anomaly.detect_ns_per_sample", ratio(incl(kDetect, e) + syn_completion, hs), "ns");
  layer("anomaly.syn_hook_ns_per_syn", ratio(on_syn, static_cast<double>(syn_calls)), "ns");
  layer("tsdb.append_ns_per_point", ratio(incl(kTsdb, e), points), "ns");
  layer("tsdb.points_per_frame", points / frames, "ratio");
  layer("tsdb.series", static_cast<double>(r.counts.series), "count");

  report.check(n1.decode_failures == 0, "staged replay: bus payloads failed to decode");
  report.check(write_chrome_trace(trace_json, log.spans(), cfg.num_queues),
               "could not write " + trace_json);
  return r;
}

}  // namespace ruru::e2e
