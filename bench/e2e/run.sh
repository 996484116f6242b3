#!/usr/bin/env bash
# One-command end-to-end benchmark of the Ruru pipeline.
#
#   bench/e2e/run.sh [--workload NAME|all] [--seed N] [--runs N]
#                    [--seconds S] [--traced | --trace 0|1] [--smoke]
#
# Builds bench/e2e as a standalone Release project into build-bench/,
# then runs one process per workload and run.  Each process prints
# `name value unit` lines, writes a results JSON under
# build-bench/results/, and ends with one JSON line (the last line of
# this script's stdout is the last run's).  Build output goes to stderr.
# Exits non-zero when the build fails or any correctness gate fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: $root holds no Ruru source tree to build" >&2
  exit 1
fi

workload=all
runs=1
pass=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    --seed|--seconds|--trace) pass+=("$1" "$2"); shift 2 ;;
    --traced|--smoke) pass+=("$1"); shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if ! [[ "$runs" =~ ^[1-9][0-9]*$ ]]; then
  echo "run.sh: --runs takes a positive count" >&2
  exit 2
fi

build="$root/build-bench"
jobs="$(nproc)"
(( jobs > 4 )) && jobs=4
cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
if ! grep -qx 'CMAKE_BUILD_TYPE:STRING=Release' "$build/CMakeCache.txt"; then
  echo "run.sh: $build is not a Release build; refusing to measure it" >&2
  exit 2
fi
cmake --build "$build" --target ruru_e2e -j "$jobs" >&2

commit=unknown
if [[ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" == "$root" ]]; then
  commit="$(git -C "$root" rev-parse HEAD)"
fi
mkdir -p "$build/results"
if [[ "$workload" == all ]]; then
  workloads=(transpacific inflow synflood live)
else
  workloads=("$workload")
fi

status=0
for w in "${workloads[@]}"; do
  for ((i = 1; i <= runs; i++)); do
    "$build/ruru_e2e" --workload "$w" --out-dir "$build/results" --commit "$commit" \
      "${pass[@]+"${pass[@]}"}" || status=$?
  done
done
exit "$status"
