#!/usr/bin/env bash
#===- tools/bench.sh ------------------------------------------------------===#
#
# Part of the fearless-concurrency reproduction.
#
#===----------------------------------------------------------------------===#
#
# Reproducible benchmark baseline pipeline: builds every bench_* binary
# listed in BENCHES below, runs each with --benchmark_out_format=json
# (counters included, e.g. the RuntimeMetrics counters exported by
# bench_concurrency, the allocs_per_iter / losing_side_visited counters
# of bench_ifdisconnected, the tracing-overhead counters of bench_trace,
# the tasks_spawned / steals / parks counters of bench_scheduler, the
# vm_instructions / ic_hits / checks_erased counters of bench_vm, the
# verdict-split counters of bench_analysis, the p50_ns / p99_ns /
# warm_speedup_p50 / requests_rejected counters of bench_server, and the
# schedules_explored / pruning_ratio_vs_naive counters of bench_mc), and
# merges the per-binary JSON into one file. Compare two such files with
# tools/bench_compare.py.
#
# Usage: tools/bench.sh -o FILE [options]
#   -B DIR        build directory                (default: <repo>/build)
#   -o FILE       merged output file (required, except with --smoke)
#   -t SECONDS    --benchmark_min_time per bench (default: 0.05)
#   -f REGEX      --benchmark_filter passed through
#   --smoke       CI smoke mode: min_time 0.01, output under the build
#                 dir, success = every binary runs to completion (no perf
#                 gating; regression thresholds are bench_compare.py's
#                 job, for local use)
#
# Note: the vendored google-benchmark predates duration-suffixed
# --benchmark_min_time values ("0.01s"), so plain seconds are passed.
#
#===----------------------------------------------------------------------===#

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
BUILD="$ROOT/build"
OUT=""
MIN_TIME="0.05"
FILTER=""
SMOKE=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    -B) BUILD="$2"; shift 2 ;;
    -o) OUT="$2"; shift 2 ;;
    -t) MIN_TIME="$2"; shift 2 ;;
    -f) FILTER="$2"; shift 2 ;;
    --smoke) SMOKE=1; shift ;;
    *) echo "bench.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done

if [[ "$SMOKE" -eq 1 ]]; then
  MIN_TIME="0.01"
  OUT="$BUILD/BENCH_smoke.json"
elif [[ -z "$OUT" ]]; then
  echo "bench.sh: -o FILE is required (the merged output path)" >&2
  exit 2
fi

BENCHES=(bench_table1 bench_checker bench_ifdisconnected bench_concurrency
         bench_trace bench_faults bench_scheduler bench_vm bench_analysis
         bench_server bench_mc)

echo "==> [bench] build (${BUILD})"
cmake -B "$BUILD" -S "$ROOT" >/dev/null
cmake --build "$BUILD" -j "$JOBS" --target "${BENCHES[@]}" >/dev/null

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

for bench in "${BENCHES[@]}"; do
  echo "==> [bench] $bench (min_time=${MIN_TIME}s)"
  args=("--benchmark_min_time=$MIN_TIME"
        "--benchmark_out=$TMP/$bench.json"
        "--benchmark_out_format=json")
  [[ -n "$FILTER" ]] && args+=("--benchmark_filter=$FILTER")
  # Some benches (bench_table1) print human-readable tables on stdout;
  # --benchmark_out keeps the JSON clean regardless.
  "$BUILD/bench/$bench" "${args[@]}" >/dev/null
done

REVISION="$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"

echo "==> [bench] merge -> $OUT"
python3 - "$TMP" "$OUT" "$REVISION" "$MIN_TIME" "${BENCHES[@]}" <<'PYEOF'
import json
import sys

tmp, out, revision, min_time, *benches = sys.argv[1:]
merged = {
    "schema": "fearless-bench-v1",
    "revision": revision,
    "min_time_seconds": float(min_time),
    "benches": {},
}
for bench in benches:
    with open(f"{tmp}/{bench}.json") as f:
        data = json.load(f)
    # Drop the noisy per-run context except the bits that affect
    # comparability; keep every benchmark entry (counters included).
    ctx = data.get("context", {})
    merged["benches"][bench] = {
        "context": {
            k: ctx[k]
            for k in ("num_cpus", "mhz_per_cpu", "library_build_type")
            if k in ctx
        },
        "benchmarks": data.get("benchmarks", []),
    }
with open(out, "w") as f:
    json.dump(merged, f, indent=1, sort_keys=True)
    f.write("\n")
total = sum(len(v["benchmarks"]) for v in merged["benches"].values())
print(f"    {total} benchmark entries from {len(benches)} binaries")
PYEOF

echo "==> [bench] done"
