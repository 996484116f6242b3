#!/usr/bin/env bash
# Correctness gates, one build directory each:
#
#   asan        every test suite under ASan+UBSan (build-asan/), built
#               with RURU_WERROR=ON so a new warning fails the gate.  The
#               capture front end, the SIMD flow table, the timestamp
#               rings, the Gorilla codec, the WAL recovery path and the
#               geo loaders all index raw bytes or shift raw lanes, so
#               both heap misuse and UB must abort the run.
#   tsan        the threaded suites under TSan (build-tsan/): msg, flow,
#               util and driver in full (lock-free bus, fan-in lanes,
#               SPSC rings, flow-table stats read by the snapshot
#               thread), the obs + core tests that drive live pipelines
#               (metrics snapshots, tracing rings, watchdog, sharded
#               scale-out, in-flow workers, alerts raised on worker and
#               enricher threads, replay retries), the enrichment pool's N
#               consumers on one subscription, and the sharded TSDB
#               engine's reader/writer decoupling, and the WebSocket
#               feed's push server (its accept thread admits clients
#               while broadcasts walk the client list).
#   invariants  un-sanitized (build/) so timing is representative: the
#               bit-identity and conservation invariants by name, then
#               the fig2 worker smoke, which fails when the vector poll
#               loop runs below 0.95x of the scalar oracle loop measured
#               in the same invocation (bench/BENCH_worker.json records
#               the ratios this floor was set against).
#
# Usage: tools/check.sh asan|tsan|invariants
set -euo pipefail

MODE="${1:-}"
case "$MODE" in
  asan|tsan|invariants) ;;
  *) echo "usage: $0 asan|tsan|invariants" >&2; exit 2 ;;
esac

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc)"
SUITES=(test_util test_net test_driver test_capture test_flow test_msg test_geo test_tsdb
        test_analytics test_anomaly test_viz test_baseline test_obs test_core)

if [ "$MODE" = "asan" ]; then
  BUILD="$ROOT/build-asan"
  cmake -B "$BUILD" -S "$ROOT" -DRURU_SANITIZE=address+undefined -DRURU_WERROR=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD" -j"$JOBS" --target "${SUITES[@]}"
  (cd "$BUILD" && ctest --output-on-failure -j"$JOBS")
  echo "asan gate OK: every suite warning-free and ASan+UBSan-clean"
  exit 0
fi

if [ "$MODE" = "tsan" ]; then
  BUILD="$ROOT/build-tsan"
  cmake -B "$BUILD" -S "$ROOT" -DRURU_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD" -j"$JOBS" \
    --target test_msg test_flow test_util test_driver test_obs test_core test_tsdb test_analytics \
    test_viz
  # Each suite's tests carry its binary name as a ctest label.
  (cd "$BUILD" && ctest --output-on-failure -j"$JOBS" \
    -L '^(test_msg|test_flow|test_util|test_driver)$')
  (cd "$BUILD" && ctest --output-on-failure -j"$JOBS" -L '^(test_obs|test_core)$' \
    -R 'Metrics|Snapshot|Prometheus|JsonLines|SelfIngest|Pipeline|FanIn|PubSub|BusQueue|Nic|LcoreLauncher|Scaling|Inflow|Worker|Trace|TscClock|Watchdog|Replay')
  (cd "$BUILD" && ctest --output-on-failure -j"$JOBS" -L '^test_analytics$' -R '^PoolTest\.')
  (cd "$BUILD" && ctest --output-on-failure -j"$JOBS" -L '^test_tsdb$' -R '^EngineConcurrency\.')
  (cd "$BUILD" && ctest --output-on-failure -j"$JOBS" -L '^test_viz$' -R '^WsServer\.')
  echo "tsan gate OK: bus, lanes, workers, telemetry, tracing, enrichment pool, TSDB shards, WebSocket feed TSan-clean"
  exit 0
fi

BUILD="$ROOT/build"
cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD" -j"$JOBS" --target test_core test_flow bench_worker_pipeline

# Sharded output is bit-identical at 1/2/4 workers and the fan-in
# conserves every sample; the pipeline summary conserves every worker
# packet (parsed + skipped + consumed); tracing at 1-in-64 leaves the
# sample stream unchanged and leaves connected span chains; metrics
# self-ingest lands ruru.self.* series in the TSDB.
"$BUILD/tests/test_core" --gtest_filter='Scaling.ShardedNWorkersBitIdenticalTo1Worker:Scaling.FanInConservesEverySample:InflowPipeline.SummaryConservesWorkerPackets:PipelineTrace.TracingDoesNotChangeMeasurements:PipelineTrace.SampledFlowsLeaveConnectedSpanChains:PipelineMetricsTest.SelfIngestLandsSeriesInTheTsdb'
# Handshake samples are bit-identical with the in-flow kernel on or off.
"$BUILD/tests/test_flow" \
  --gtest_filter='InflowWorker.HandshakeSamplesBitIdenticalWithKernelOnOrOff'

# fig2 smoke: the vector loop's Transpacific throughput must hold
# >= 0.95x the scalar oracle loop's, both measured by this one
# invocation (3 interleaved repetitions each, medians compared).  A
# same-invocation reference moves with the host, so the floor needs no
# recorded absolute number; a vector loop 20% slower fails it.  The two
# loops are at parity on this workload, so min_time 2 keeps repetition
# noise inside the 5% margin.
RATIO="$("$BUILD/bench/bench_worker_pipeline" \
    --benchmark_filter='BM_WorkerTranspacific/vector:[01]$' \
    --benchmark_repetitions=3 --benchmark_enable_random_interleaving=true \
    --benchmark_report_aggregates_only=true --benchmark_min_time=2 \
    --benchmark_format=json 2>/dev/null \
  | awk -F': ' '
      /"name":/ { name = $2; gsub(/[",]/, "", name) }
      /"items_per_second":/ {
        v = $2; gsub(/,/, "", v)
        if (name == "BM_WorkerTranspacific/vector:0_median") scalar = v
        if (name == "BM_WorkerTranspacific/vector:1_median") vector = v
      }
      END { if (scalar > 0 && vector > 0) printf "%.0f %.0f %.4f\n", scalar, vector, vector / scalar }')"
[ -n "$RATIO" ] || { echo "invariants gate: smoke bench produced no throughput" >&2; exit 1; }
read -r SCALAR_PPS VECTOR_PPS VS_SCALAR <<<"$RATIO"
echo "worker smoke: vector ${VECTOR_PPS} pps vs scalar oracle ${SCALAR_PPS} pps (${VS_SCALAR}x, floor 0.95x)"
awk -v r="$VS_SCALAR" 'BEGIN { exit (r >= 0.95) ? 0 : 1 }' \
  || { echo "invariants gate FAILED: fig2 smoke vector loop below 0.95x of the scalar oracle" >&2; exit 1; }
echo "invariants gate OK: bit-identity and conservation hold, fig2 smoke held"
