#!/usr/bin/env bash
# End-to-end benchmark in alternating parent/change pairs.
#
#   tools/bench_pairs.sh <parent-rev> [--pairs N] [--workload W|all] [--seed S]
#                        [--seconds S] [--dir DIR]
#
# Extracts <parent-rev> with `git archive` into DIR (default: a sibling
# directory of this checkout, named after the parent's short hash; an
# existing DIR is reused only when it holds that same revision) and runs
# each tree's own bench/e2e/run.sh.  The change is this working tree.
# Odd pairs run the parent first, even pairs the change first, so a host
# that drifts during the session slows both sides alike.  On a shared
# host absolute numbers drift by more than 2x within a day, so only a
# comparison made this way is evidence.
#
# For every workload and every end-to-end metric in BENCHMARK.json it
# prints each side's median and quartiles, the change/parent ratio of
# the medians, the pairs the change won, the metric's bound and a
# verdict, checked in this order:
#   worse         the change's median is worse than the parent's by more
#                 than the bound
#   unresolved    the parent's quartile spread (q3 - q1, relative to its
#                 median) is wider than the bound, and not every change
#                 run beats every parent run
#   improved      the change won >= 9/10 of the pairs, and its median is
#                 better by more than the parent's quartile spread and by
#                 more than a tenth of the bound (relative to the parent's
#                 median: 2.5% for a 0.25 bound, 0.6% for 0.06), so a
#                 metric that barely moves is never read as a gain
#   within bound  anything else
#
# Then it appends one entry (both commits, build type, nproc, pairs,
# seeds, medians and ratios) to bench/BENCH_e2e.json.  Exits 1 when any
# run reports "correct": false (nothing is appended then), 2 on a usage
# error.  Reads BENCHMARK.json and bench/e2e/ and edits neither.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage() {
  echo "usage: $0 <parent-rev> [--pairs N] [--workload W|all] [--seed S] [--seconds S]" \
    "[--dir DIR]" >&2
  exit 2
}
[[ $# -ge 1 && "$1" != --* ]] || usage
rev="$1"
shift
pairs=10
workload=all
seed=""
seconds=""
dir=""
while [[ $# -gt 0 ]]; do
  [[ $# -ge 2 ]] || usage
  case "$1" in
    --pairs) pairs="$2" ;;
    --workload) workload="$2" ;;
    --seed) seed="$2" ;;
    --seconds) seconds="$2" ;;
    --dir) dir="$2" ;;
    *) usage ;;
  esac
  shift 2
done
if ! [[ "$pairs" =~ ^[1-9][0-9]*$ ]]; then
  echo "bench_pairs: --pairs takes a positive count" >&2
  exit 2
fi

parent="$(git -C "$root" rev-parse --verify "$rev^{commit}")" \
  || { echo "bench_pairs: $rev is not a commit" >&2; exit 2; }
change="$(git -C "$root" rev-parse HEAD)"
[[ -z "$(git -C "$root" status --porcelain --untracked-files=no)" ]] || change="$change+dirty"
spec() {  # spec EXPR: prints EXPR over BENCHMARK.json (bound to b)
  python3 -c "import json, sys; b = json.load(open(sys.argv[1])); $1" "$root/BENCHMARK.json"
}
[[ -n "$seconds" ]] || seconds="$(spec 'print(b["run_seconds"])')"
if [[ "$workload" == all ]]; then
  mapfile -t workloads < <(spec 'print("\n".join(w["name"] for w in b["workloads"]))')
else
  workloads=("$workload")
fi

[[ -n "$dir" ]] || dir="$(dirname "$root")/$(basename "$root")-parent-${parent:0:12}"
if [[ -d "$dir" ]]; then
  if [[ "$(cat "$dir/.bench_pairs_rev" 2>/dev/null)" != "$parent" ]]; then
    echo "bench_pairs: $dir exists and holds no extract of $parent; pick another --dir" >&2
    exit 2
  fi
else
  mkdir -p "$dir"
  git -C "$root" archive "$parent" | tar -x -C "$dir"
  echo "$parent" >"$dir/.bench_pairs_rev"
fi

runs="$(mktemp -d)"
trap 'rm -rf "$runs"' EXIT
pass=(--seconds "$seconds")
[[ -z "$seed" ]] || pass+=(--seed "$seed")

# run SIDE TREE WORKLOAD PAIR: one run.sh process; keeps its last stdout
# line (the metrics JSON) and the results file it names.
run() {
  local out="$runs/$3-$4-$1"
  echo "bench_pairs: pair $4/$pairs $3 $1" >&2
  bash "$2/bench/e2e/run.sh" --workload "$3" "${pass[@]}" >"$out.stdout" 2>"$out.log" || true
  tail -n 1 "$out.stdout" >"$out.json"
  sed -n 's/^# results //p' "$out.stdout" | tail -n 1 >"$out.results"
}
for w in "${workloads[@]}"; do
  for ((i = 1; i <= pairs; i++)); do
    if ((i % 2 == 1)); then
      run parent "$dir" "$w" "$i"
      run change "$root" "$w" "$i"
    else
      run change "$root" "$w" "$i"
      run parent "$dir" "$w" "$i"
    fi
  done
done

python3 - "$root" "$runs" "$parent" "$change" "$pairs" "$seconds" "${workloads[@]}" <<'PY'
import datetime, json, os, statistics, sys

root, runs, parent, change, pairs, seconds, *workloads = sys.argv[1:]
pairs = int(pairs)
spec = json.load(open(os.path.join(root, "BENCHMARK.json")))

def load(w, i, side):
    base = os.path.join(runs, f"{w}-{i}-{side}")
    try:
        line = json.loads(open(base + ".json").read())
    except ValueError:
        line = {"correct": False, "metrics": {}}
    info = {}
    path = open(base + ".results").read().strip()
    if path:
        try:
            info = json.load(open(path))
        except (OSError, ValueError):
            pass
    return line, info

def quartiles(xs):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

all_correct = True
entry_workloads = {}
build_types, nprocs = set(), set()
def fmt(m, q1, q3):
    return f"{m:.5g} [{q1:.5g}, {q3:.5g}]"

print(f"parent {parent[:12]}  change {change[:12]}{'+dirty' if change.endswith('+dirty') else ''}  "
      f"{pairs} pairs")
print(f"{'workload':<13} {'metric':<22} {'parent median [q1, q3]':>34} "
      f"{'change median [q1, q3]':>34} {'ratio':>6} {'won':>6} {'bound':>5}  verdict")
for w in workloads:
    sides = {"parent": [], "change": []}
    seeds = set()
    for i in range(1, pairs + 1):
        for side in sides:
            line, info = load(w, i, side)
            if not line.get("correct", False):
                all_correct = False
                print(f"bench_pairs: {w} pair {i} {side} run failed a correctness gate",
                      file=sys.stderr)
            sides[side].append(line.get("metrics", {}))
            if "seed" in info: seeds.add(info["seed"])
            if "build_type" in info: build_types.add(info["build_type"])
            if "nproc" in info: nprocs.add(info["nproc"])
    rows = {}
    for m in spec["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        p = [r[name]["value"] for r in sides["parent"] if name in r]
        c = [r[name]["value"] for r in sides["change"] if name in r]
        if len(p) != pairs or len(c) != pairs:
            continue
        mp, mc = statistics.median(p), statistics.median(c)
        (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
        better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
        won = sum(1 for a, b in zip(c, p) if better(a, b))
        ratio = mc / mp if mp else float("nan")
        spread = (p3 - p1) / abs(mp) if mp else float("inf")
        if (mc > mp * (1 + bound)) if lower else (mc < mp * (1 - bound)):
            verdict = "worse"
        elif spread > bound and not all(better(a, b) for a in c for b in p):
            verdict = "unresolved"
        elif (won >= 0.9 * pairs and better(mc, mp)
              and abs(mc - mp) > max(p3 - p1, bound / 10 * abs(mp))):
            verdict = "improved"
        else:
            verdict = "within bound"
        g = lambda x: float(f"{x:.6g}")
        rows[name] = {"parent_median": g(mp), "parent_q1": g(p1), "parent_q3": g(p3),
                      "change_median": g(mc), "change_q1": g(c1), "change_q3": g(c3),
                      "ratio": round(ratio, 4), "won": won, "bound": bound,
                      "verdict": verdict}
        print(f"{w:<13} {name:<22} {fmt(mp, p1, p3):>34} {fmt(mc, c1, c3):>34} "
              f"{ratio:>6.3f} {f'{won}/{pairs}':>6} {bound:>5}  {verdict}")
    entry_workloads[w] = {"seeds": sorted(seeds), "metrics": rows}

if pairs < 10:
    print(f"bench_pairs: {pairs} pairs; a gain is claimed only on >= 10 (9/10 won)")

if not all_correct:
    print("bench_pairs: a run failed its correctness gates; nothing appended", file=sys.stderr)
    sys.exit(1)

ledger = os.path.join(root, "bench", "BENCH_e2e.json")
doc = {"benchmark": "bench/e2e end-to-end metrics, parent vs change in alternating pairs "
                    "(tools/bench_pairs.sh): medians, quartiles and verdicts against each "
                    "BENCHMARK.json bound",
       "trajectory": []}
if os.path.exists(ledger):
    doc = json.load(open(ledger))
doc["trajectory"].append({
    "date": datetime.date.today().isoformat(),
    "parent": parent, "change": change,
    "build_type": "/".join(sorted(build_types)),
    "nproc": sorted(nprocs)[0] if len(nprocs) == 1 else sorted(nprocs),
    "pairs": pairs, "seconds": float(seconds),
    "workloads": entry_workloads,
})
def emit(o, ind=""):
    """JSON with one line per object or list that nests nothing."""
    kids = o.values() if isinstance(o, dict) else o if isinstance(o, list) else ()
    if not any(isinstance(k, (dict, list)) for k in kids):
        return json.dumps(o)
    inner = ind + "  "
    if isinstance(o, dict):
        body = ",\n".join(f"{inner}{json.dumps(k)}: {emit(v, inner)}" for k, v in o.items())
        return "{\n" + body + "\n" + ind + "}"
    return "[\n" + ",\n".join(inner + emit(v, inner) for v in o) + "\n" + ind + "]"

with open(ledger, "w") as f:
    f.write(emit(doc) + "\n")
print(f"bench_pairs: appended to {os.path.relpath(ledger, root)}")
PY
