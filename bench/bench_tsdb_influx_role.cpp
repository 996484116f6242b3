// E7 / §2 storage — the InfluxDB role: per-sample ingest with geo/AS
// tags, then Grafana's queries (min/max/median/mean per interval,
// grouped by location/AS).
//
// Reports ingest rate, windowed-stats query latency over 1M points, and
// group-by query latency, plus WAL append overhead.  BM_ChunkDecode and
// BM_Summarize split a query's cost into its two layers: chunk decode
// (ns/point) and ordering + stats (ns/value).

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "tsdb/query.hpp"
#include "tsdb/wal.hpp"
#include "util/random.hpp"

namespace {

using namespace ruru;

TagSet make_tags(Pcg32& rng) {
  static const char* kCities[] = {"Auckland", "Wellington", "Christchurch", "Dunedin", "Hamilton"};
  static const char* kDest[] = {"Los Angeles", "San Jose", "Seattle", "London", "Tokyo",
                                "Singapore", "Sydney", "Frankfurt"};
  TagSet t;
  t.add("src_city", kCities[rng.bounded(5)]);
  t.add("dst_city", kDest[rng.bounded(8)]);
  t.add("dst_as", std::to_string(1000 + rng.bounded(8)));
  return t;
}

void BM_TsdbIngest(benchmark::State& state) {
  Pcg32 rng(0xDB);
  TsdbEngine db;
  std::int64_t t = 0;
  for (auto _ : state) {
    db.write("total_ms", make_tags(rng), Timestamp::from_us(t += 100), rng.uniform(80.0, 300.0));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["series"] = static_cast<double>(db.series_count());
}
BENCHMARK(BM_TsdbIngest);

void BM_TsdbIngestWithWal(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() / ("bench_wal_" + std::to_string(::getpid()) + ".wal"))
          .string();
  auto wal = Wal::create(path);
  if (!wal.ok()) {
    state.SkipWithError("wal create failed");
    return;
  }
  Pcg32 rng(0xDB);
  TsdbEngine db;
  db.attach_wal(&wal.value());
  std::int64_t t = 0;
  for (auto _ : state) {
    db.write("total_ms", make_tags(rng), Timestamp::from_us(t += 100), rng.uniform(80.0, 300.0));
  }
  wal.value().sync();
  state.SetItemsProcessed(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_TsdbIngestWithWal);

class LoadedDb {
 public:
  static const TsdbEngine& instance() {
    static const LoadedDb db;
    return db.db_;
  }

 private:
  LoadedDb() {
    Pcg32 rng(0xDB2);
    for (int i = 0; i < 1'000'000; ++i) {
      db_.write("total_ms", make_tags(rng), Timestamp::from_ms(i / 10),
                rng.uniform(80.0, 300.0));
    }
  }
  TsdbEngine db_;
};

// The Grafana panel query: stats over a time interval.
void BM_TsdbAggregateQuery(benchmark::State& state) {
  const auto& db = LoadedDb::instance();
  const auto span_ms = state.range(0);
  for (auto _ : state) {
    const auto r = db.aggregate("total_ms", TagSet{}, Timestamp::from_ms(1'000),
                                Timestamp::from_ms(1'000 + span_ms));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TsdbAggregateQuery)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000)
    ->ArgName("span_ms")
    ->Unit(benchmark::kMicrosecond);

// The dashboard time-series: windowed stats across the run.
void BM_TsdbWindowQuery(benchmark::State& state) {
  const auto& db = LoadedDb::instance();
  for (auto _ : state) {
    const auto r = db.window_aggregate("total_ms", TagSet{}, Timestamp{},
                                       Timestamp::from_ms(100'000),
                                       Duration::from_sec(static_cast<double>(state.range(0))));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TsdbWindowQuery)->Arg(1)->Arg(10)->ArgName("window_s")->Unit(benchmark::kMillisecond);

// "InfluxDB takes care of indexing data on geo-location and AS": the
// group-by query behind per-location panels.
void BM_TsdbGroupBy(benchmark::State& state) {
  const auto& db = LoadedDb::instance();
  const char* key = state.range(0) == 0 ? "src_city" : "dst_as";
  for (auto _ : state) {
    const auto r = db.group_by("total_ms", key, TagSet{}, Timestamp{}, Timestamp::from_ms(100'000));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TsdbGroupBy)->Arg(0)->Arg(1)->ArgName("key")->Unit(benchmark::kMillisecond);

/// Latency-shaped values: whole nanoseconds in [80, 300) ms, in ms.
double handshake_ms(Pcg32& rng) {
  return static_cast<double>(80'000'000 + rng.bounded(220'000'000)) / 1e6;
}

/// Distinct inputs a bench cycles through, so the branch predictor
/// cannot learn one input's outcomes across iterations (a query never
/// sees the same data twice in a row).
constexpr std::size_t kInputs = 16;

// Query layer 1: decode a sealed 512-point chunk shaped like a handshake
// series (arrivals 0.5-1.5 ms apart, ns-derived ms values).
void BM_ChunkDecode(benchmark::State& state) {
  constexpr std::uint32_t kPoints = 512;
  Pcg32 rng(0xC0DE);
  std::vector<std::shared_ptr<const SealedChunk>> chunks;
  std::size_t bytes = 0;
  for (std::size_t c = 0; c < kInputs; ++c) {
    ChunkWriter writer;
    std::int64_t t = 0;
    for (std::uint32_t i = 0; i < kPoints; ++i) {
      t += 500'000 + rng.bounded(1'000'000);
      writer.append(Timestamp::from_ns(t), handshake_ms(rng));
    }
    chunks.push_back(writer.seal());
    bytes += chunks.back()->bytes.size();
  }
  std::vector<std::int64_t> ts(kPoints);
  std::vector<double> values(kPoints);
  std::size_t next = 0;
  for (auto _ : state) {
    ChunkCursor cursor(*chunks[next++ % kInputs]);
    benchmark::DoNotOptimize(cursor.read(ts.data(), values.data(), kPoints));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kPoints);
  state.counters["bits_per_point"] = static_cast<double>(bytes * 8) / (kInputs * kPoints);
}
BENCHMARK(BM_ChunkDecode);

// Query layer 2: order one group's values and take its stats.  Each
// iteration copies in one of the unsorted inputs (summarize sorts in
// place).
void BM_Summarize(benchmark::State& state) {
  Pcg32 rng(0x5042);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<std::uint64_t>> inputs(kInputs, std::vector<std::uint64_t>(n));
  for (auto& input : inputs) {
    for (auto& k : input) k = order_key(handshake_ms(rng));
  }
  std::vector<std::uint64_t> keys;
  std::size_t next = 0;
  for (auto _ : state) {
    keys = inputs[next++ % kInputs];
    benchmark::DoNotOptimize(summarize(keys));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Summarize)->Arg(1'000)->Arg(20'000)->Arg(100'000)->Unit(benchmark::kMicrosecond);

// Retention enforcement cost.
void BM_TsdbRetention(benchmark::State& state) {
  Pcg32 rng(9);
  for (auto _ : state) {
    state.PauseTiming();
    TsdbEngine db;
    for (int i = 0; i < 100'000; ++i) {
      db.write("m", make_tags(rng), Timestamp::from_ms(i), 1.0);
    }
    state.ResumeTiming();
    const auto dropped = db.enforce_retention(Timestamp::from_ms(100'000),
                                              Duration::from_sec(50.0));
    benchmark::DoNotOptimize(dropped);
  }
}
BENCHMARK(BM_TsdbRetention)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

BENCHMARK_MAIN();
