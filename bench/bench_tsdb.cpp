// TSDB engine vs the mutex/std::map legacy store (ISSUE 7).
//
// Three questions, answered with manual-time runs so the concurrent
// parts measure wall clock, not per-thread CPU:
//  * ingest-while-querying: W writer threads stream route-shaped points
//    while one query thread runs window_aggregate scans back to back —
//    the legacy store serializes everything behind one mutex, the
//    engine's shards + lock-free sealed reads must not (target >= 5x);
//  * query latency under ingest: per-query p50/p99 sampled on the
//    query thread of the same run;
//  * bytes/point: storage_stats() on a monitoring-shaped workload
//    (1 s cadence, repeat-heavy gauge — the >= 8x claim) and on
//    scenario-replay-shaped handshake latencies (entropy-bound, so the
//    honest number is reported rather than 8x).
//
// Results land in bench/BENCH_tsdb.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "oracle/legacy_tsdb.hpp"
#include "tsdb/query.hpp"
#include "util/random.hpp"

namespace {

using namespace ruru;

constexpr int kWriters = 4;
constexpr int kPointsPerWriter = 150'000;
constexpr std::int64_t kCadenceNs = 1'000'000;  // 1 ms between a writer's points

const char* const kSrc[] = {"Auckland", "Wellington", "Christchurch", "Dunedin", "Hamilton"};
const char* const kDst[] = {"Los Angeles", "San Jose", "Seattle", "London", "Tokyo",
                            "Singapore", "Sydney", "Frankfurt"};

TagSet route_tags(std::uint32_t route) {
  TagSet t;
  t.add("src_city", kSrc[route % 5]);
  t.add("dst_city", kDst[(route / 5) % 8]);
  t.add("dst_as", std::to_string(1000 + route % 8));
  return t;
}

struct QueryStats {
  std::uint64_t queries = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Runs the window_aggregate scan loop on the calling thread until
/// `stop`, sampling per-query latency.
template <typename Store>
QueryStats query_loop(const Store& store, const std::atomic<bool>& stop) {
  QueryStats out;
  std::vector<double> lat_ms;
  lat_ms.reserve(1 << 14);
  const Timestamp t0{0};
  const Timestamp t1{static_cast<std::int64_t>(kPointsPerWriter) * kCadenceNs};
  while (!stop.load(std::memory_order_acquire)) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(
        store.window_aggregate("total_ms", TagSet{}, t0, t1, Duration::from_ms(1000)));
    const auto end = std::chrono::steady_clock::now();
    lat_ms.push_back(std::chrono::duration<double, std::milli>(end - start).count());
    ++out.queries;
  }
  if (!lat_ms.empty()) {
    std::sort(lat_ms.begin(), lat_ms.end());
    out.p50_ms = lat_ms[lat_ms.size() / 2];
    out.p99_ms = lat_ms[std::min(lat_ms.size() - 1, lat_ms.size() * 99 / 100)];
  }
  return out;
}

/// One full ingest-while-querying run; returns elapsed seconds.
template <typename WriterFn, typename Store>
double run_concurrent(const Store& store, WriterFn writer, QueryStats& qstats) {
  std::atomic<bool> stop{false};
  QueryStats collected;
  std::thread query([&] { collected = query_loop(store, stop); });
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) writers.emplace_back(writer, w);
    for (auto& t : writers) t.join();
  }
  const auto end = std::chrono::steady_clock::now();
  stop.store(true, std::memory_order_release);
  query.join();
  qstats = collected;
  return std::chrono::duration<double>(end - start).count();
}

void report(benchmark::State& state, double seconds, const QueryStats& q) {
  state.SetIterationTime(seconds);
  state.counters["points_per_sec"] = benchmark::Counter(
      static_cast<double>(kWriters) * kPointsPerWriter / seconds);
  state.counters["queries"] = static_cast<double>(q.queries);
  state.counters["query_p50_ms"] = q.p50_ms;
  state.counters["query_p99_ms"] = q.p99_ms;
}

constexpr int kWarmupPoints = 100'000;

void BM_LegacyIngestWhileQuerying(benchmark::State& state) {
  for (auto _ : state) {
    TimeSeriesDb db;
    // Pre-load before the clock starts so every query scans a real
    // store: an empty-store scan returns in nanoseconds and would make
    // the latency percentiles (and the mutex contention) meaningless.
    {
      Pcg32 rng(0xBEEF);
      for (int i = 0; i < kWarmupPoints; ++i) {
        db.write("total_ms", route_tags(rng.bounded(40)),
                 Timestamp{static_cast<std::int64_t>(i % kPointsPerWriter) * kCadenceNs},
                 rng.uniform(80.0, 300.0));
      }
    }
    QueryStats q;
    const double secs = run_concurrent(
        db,
        [&db](int w) {
          // The legacy hot path: canonicalized tag strings + the global
          // mutex + std::map walk on every point.
          Pcg32 rng(static_cast<std::uint64_t>(w) + 1);
          for (int i = 0; i < kPointsPerWriter; ++i) {
            db.write("total_ms", route_tags(rng.bounded(40)),
                     Timestamp{static_cast<std::int64_t>(i) * kCadenceNs},
                     rng.uniform(80.0, 300.0));
          }
        },
        q);
    report(state, secs, q);
  }
}
BENCHMARK(BM_LegacyIngestWhileQuerying)->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_EngineIngestWhileQuerying(benchmark::State& state) {
  for (auto _ : state) {
    TsdbEngine db(TsdbOptions{8, 512, Duration::from_sec(600.0)});
    // Route cache, as the pipeline sink keeps one: resolve each of the
    // 40 routes once, then the per-point path is id-only appends.
    std::vector<SeriesId> routes;
    for (std::uint32_t r = 0; r < 40; ++r) routes.push_back(db.series("total_ms", route_tags(r)));
    {
      Pcg32 rng(0xBEEF);
      for (int i = 0; i < kWarmupPoints; ++i) {
        db.append(routes[rng.bounded(40)],
                  Timestamp{static_cast<std::int64_t>(i % kPointsPerWriter) * kCadenceNs},
                  rng.uniform(80.0, 300.0));
      }
    }
    QueryStats q;
    const double secs = run_concurrent(
        db,
        [&db, &routes](int w) {
          Pcg32 rng(static_cast<std::uint64_t>(w) + 1);
          for (int i = 0; i < kPointsPerWriter; ++i) {
            db.append(routes[rng.bounded(40)],
                      Timestamp{static_cast<std::int64_t>(i) * kCadenceNs},
                      rng.uniform(80.0, 300.0));
          }
        },
        q);
    report(state, secs, q);
  }
}
BENCHMARK(BM_EngineIngestWhileQuerying)->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_EngineIngestNoQueries(benchmark::State& state) {
  // Upper bound: the same sharded ingest with the query thread absent.
  for (auto _ : state) {
    TsdbEngine db(TsdbOptions{8, 512, Duration::from_sec(600.0)});
    std::vector<SeriesId> routes;
    for (std::uint32_t r = 0; r < 40; ++r) routes.push_back(db.series("total_ms", route_tags(r)));
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&db, &routes, w] {
        Pcg32 rng(static_cast<std::uint64_t>(w) + 1);
        for (int i = 0; i < kPointsPerWriter; ++i) {
          db.append(routes[rng.bounded(40)],
                    Timestamp{static_cast<std::int64_t>(i) * kCadenceNs},
                    rng.uniform(80.0, 300.0));
        }
      });
    }
    for (auto& t : writers) t.join();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    state.SetIterationTime(secs);
    state.counters["points_per_sec"] = benchmark::Counter(
        static_cast<double>(kWriters) * kPointsPerWriter / secs);
  }
}
BENCHMARK(BM_EngineIngestNoQueries)->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_EngineBytesPerPointMonitoring(benchmark::State& state) {
  // Monitoring shape: fixed 1 s cadence, gauge stepping occasionally in
  // small exact-decimal increments (Gorilla's repeat-heavy regime).
  for (auto _ : state) {
    TsdbEngine db(TsdbOptions{4, 512, Duration::from_sec(3600.0)});
    Pcg32 rng(7);
    std::vector<SeriesId> sids;
    for (std::uint32_t r = 0; r < 8; ++r) sids.push_back(db.series("rtt_ms", route_tags(r)));
    std::vector<double> gauges(8, 120.0);
    for (int i = 0; i < 40'000; ++i) {
      const std::uint32_t r = static_cast<std::uint32_t>(i) % 8;
      if (rng.chance(0.3)) {
        gauges[r] += (static_cast<double>(rng.bounded(7)) - 3.0) * 0.125;
      }
      db.append(sids[r], Timestamp::from_ns((i / 8) * 1'000'000'000LL), gauges[r]);
    }
    const auto stats = db.storage_stats();
    state.counters["bytes_per_point"] = stats.bytes_per_point();
    state.counters["compression_x"] = 16.0 / stats.bytes_per_point();
  }
}
BENCHMARK(BM_EngineBytesPerPointMonitoring);

void BM_EngineBytesPerPointHandshake(benchmark::State& state) {
  // Scenario-replay shape: jittered arrivals, full-range latency values
  // — high-entropy input, so this reports the honest floor, not 8x.
  for (auto _ : state) {
    TsdbEngine db(TsdbOptions{4, 512, Duration::from_sec(3600.0)});
    Pcg32 rng(9);
    std::vector<SeriesId> sids;
    for (std::uint32_t r = 0; r < 40; ++r) sids.push_back(db.series("total_ms", route_tags(r)));
    std::int64_t t = 0;
    for (int i = 0; i < 40'000; ++i) {
      t += 500'000 + static_cast<std::int64_t>(rng.bounded(1'000'000));
      db.append(sids[rng.bounded(40)], Timestamp::from_ns(t), rng.uniform(80.0, 300.0));
    }
    const auto stats = db.storage_stats();
    state.counters["bytes_per_point"] = stats.bytes_per_point();
    state.counters["compression_x"] = 16.0 / stats.bytes_per_point();
  }
}
BENCHMARK(BM_EngineBytesPerPointHandshake);

}  // namespace

BENCHMARK_MAIN();
