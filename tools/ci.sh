#!/usr/bin/env bash
#===- tools/ci.sh ---------------------------------------------------------===#
#
# Part of the fearless-concurrency reproduction.
#
#===----------------------------------------------------------------------===#
#
# Local CI gate: a regular build (from clean, failing on any compiler
# warning) + test pass (followed by a benchmark
# smoke run — every bench binary must execute to completion; no perf
# thresholds, that is tools/bench_compare.py's job), a CLI exit-code
# smoke, a fearlessd server smoke (daemon output bit-identical to
# standalone on every example, warm-cache assertion, draining
# shutdown), a seeded chaos smoke (fault injection on the task pool, 8
# fixed seeds), a generated-corpus analysis smoke with an
# interprocedural precision gate and a byte-identity gate on the
# analyzer's output (tools/analysis_digests.sh against
# tests/fixtures/analysis_digests.sha256, which also pins `check
# --stats`, every example's typing derivation and `run --stats` for
# every program with a `main`), a parser nesting-cap
# smoke, a 20k-statement long-block smoke, a model-checker smoke (the
# erasure-soundness gate: `fearlessc mc --mc-checks=off` over the
# examples and corpus, plus a deadlock fixture whose counterexample
# schedule must replay deterministically), then the same test suite
# (the task pool's suites repeated), server smoke, and chaos smoke
# under ThreadSanitizer plus the
# checker-side and runtime unit tests and the corpus, nesting-cap and
# long-block smokes under AddressSanitizer. The
# concurrent runtime (ParallelExec, ChannelSet) is the part of this repo
# most likely to rot silently — TSan and chaos keep the "fearless" claim
# honest. Each `==>` step prints its elapsed seconds and each pass its
# total, and the run ends with its slowest steps.
#
# Usage: tools/ci.sh [extra ctest args...]
#
#===----------------------------------------------------------------------===#

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"

# Step timing. Every step starts with `step "[pass] label"`, which prints
# the `==>` header and closes the step before it with its elapsed
# seconds; when the `[pass]` tag changes, the finished pass's total is
# printed too. The end of the run lists the slowest steps.
STEP_LABEL="" STEP_T0=0 PASS_TAG="" PASS_T0=0
STEP_TIMES=()
now() { date +%s.%N; }
since() { awk -v a="$1" -v b="$(now)" 'BEGIN { printf "%.1f", b - a }'; }
close_step() {
  [[ -n "$STEP_LABEL" ]] || return 0
  local secs
  secs="$(since "$STEP_T0")"
  echo "    (${secs} s)"
  STEP_TIMES+=("$secs $STEP_LABEL")
  STEP_LABEL=""
}
close_pass() {
  [[ -n "$PASS_TAG" ]] || return 0
  echo "==> $PASS_TAG pass total: $(since "$PASS_T0") s"
  PASS_TAG=""
}
step() {
  close_step
  local tag="${1%%]*}]"
  if [[ "$tag" != "$PASS_TAG" ]]; then
    close_pass
    PASS_TAG="$tag"
    PASS_T0="$(now)"
  fi
  STEP_LABEL="$1"
  STEP_T0="$(now)"
  echo "==> $1"
}

# The default pass must build warning-free. It builds from clean, so the
# log holds every translation unit's diagnostics, and fails on any
# `warning:` line in it.
run_pass() {
  local name="$1" dir="$2"
  shift 2
  step "[$name] configure"
  cmake -B "$dir" -S "$ROOT" "$@" >/dev/null
  step "[$name] build"
  if [[ "$name" == default ]]; then
    cmake --build "$dir" -j "$JOBS" --clean-first 2>&1 |
      tee "$dir/ci_build.log"
    if grep -q "warning:" "$dir/ci_build.log"; then
      echo "==> [$name] FAIL: the build emitted warnings:" >&2
      grep "warning:" "$dir/ci_build.log" >&2
      exit 1
    fi
    echo "    build log: no warnings"
  else
    cmake --build "$dir" -j "$JOBS"
  fi
  step "[$name] test"
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" "${CTEST_ARGS[@]}")
}

# Static region-graph analysis over every example program plus the six
# embedded samples. The analyzer must not crash, and a must-connected
# verdict (a provably dead `if disconnected` then-branch) is a bug in the
# example unless the example exists to demonstrate exactly that
# (disconnect_static.fls).
run_analyze() {
  local name="$1" dir="$2"
  local fc="$dir/tools/fearlessc"
  step "[$name] analyze (embedded samples)"
  "$fc" analyze --samples | sed 's/^/    /'
  for f in "$ROOT"/examples/*.fls; do
    step "[$name] analyze $(basename "$f")"
    local out
    out="$("$fc" analyze "$f")"
    sed 's/^/    /' <<<"$out"
    if [[ "$(basename "$f")" != "disconnect_static.fls" ]] &&
       grep -q "is must-connected" <<<"$out"; then
      echo "==> [$name] FAIL: unexpected must-connected verdict in $f" >&2
      exit 1
    fi
  done
}

# Trace smoke: `fearlessc run --trace` must produce JSON that actually
# parses and follows the Chrome trace_event schema (pid/tid/ts/name/ph,
# dur on complete events). The deep validation lives in trace_test; this
# catches exporter rot end to end through the CLI.
run_trace_smoke() {
  local name="$1" dir="$2"
  step "[$name] trace smoke (fearlessc run --trace)"
  local out="$dir/ci_trace_smoke.json"
  "$dir/tools/fearlessc" run "$ROOT/examples/dll_remove.fls" main \
    --metrics --trace "$out" >/dev/null
  python3 - "$out" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
for e in events:
    assert {"name", "ph", "pid", "tid"} <= e.keys(), e
    if e["ph"] != "M":
        assert "ts" in e, e
    if e["ph"] == "X":
        assert "dur" in e, e
print(f"    valid Chrome trace, {len(events)} events")
PYEOF
}

# CLI exit-code smoke: fearlessc's documented exit codes (0 ok, 2 usage,
# 3 parse, 4 check/verify, 5 runtime fault — docs/OBSERVABILITY.md,
# "Robustness & fault injection") are part of its interface; scripts and
# this gate rely on them staying distinct.
expect_exit() {
  local want="$1" label="$2"
  shift 2
  local got=0
  "$@" >/dev/null 2>&1 || got=$?
  if [[ "$got" != "$want" ]]; then
    echo "==> FAIL: $label: expected exit $want, got $got ($*)" >&2
    exit 1
  fi
  echo "    $label: exit $got"
}

run_cli_smoke() {
  local name="$1" dir="$2"
  local fc="$dir/tools/fearlessc"
  step "[$name] CLI exit-code smoke"
  printf 'struct data { value : int;\n' >"$dir/ci_parse_err.fls"
  cat >"$dir/ci_check_err.fls" <<'EOF'
struct data { value : int; }
struct node { iso payload : data; }

def f(x : node, c : bool) : unit {
  if (c) { send(x) } else { unit }
}
EOF
  expect_exit 0 "success" \
    "$fc" check "$ROOT/examples/dll_remove.fls"
  expect_exit 2 "usage (malformed --faults)" \
    "$fc" run "$ROOT/examples/dll_remove.fls" main --faults 'bogus'
  # Malformed integers and unknown flags are usage errors, not a run
  # with a silently different argument.
  expect_exit 2 "usage (non-integer argument)" \
    "$fc" run "$ROOT/examples/dll_remove.fls" main abc
  expect_exit 2 "usage (trailing garbage in an integer)" \
    "$fc" run "$ROOT/examples/dll_remove.fls" main 7x
  expect_exit 2 "usage (malformed numeric flag)" \
    "$fc" run "$ROOT/examples/dll_remove.fls" main --seed 3x
  expect_exit 2 "usage (unknown flag)" \
    "$fc" run "$ROOT/examples/dll_remove.fls" main --bogus
  expect_exit 3 "parse error" "$fc" check "$dir/ci_parse_err.fls"
  # 10k nested parentheses used to overflow the parser's stack (exit
  # 139); the nesting cap makes them a parse diagnostic.
  python3 -c 'print("def main() : int { " + "(" * 10000 + "1" +
                    ")" * 10000 + " }")' >"$dir/ci_deep_parens.fls"
  expect_exit 3 "parse error (nesting depth)" \
    "$fc" check "$dir/ci_deep_parens.fls"
  expect_exit 4 "check rejection" "$fc" check "$dir/ci_check_err.fls"
  expect_exit 5 "runtime fault" \
    "$fc" run "$ROOT/examples/dll_remove.fls" main \
    --faults 'heap.alloc=nth:3,seed=7'
  # The task pool's fault path: the first thread dies at start, the run
  # aborts with the typed diagnostic and the death counts as escalated.
  local pool_out pool_err pool_exit=0
  pool_out="$("$fc" run "$ROOT/examples/msg_pipeline.fls" main --workers 2 \
    --faults thread.start=nth:1 --metrics 2>"$dir/ci_pool_fault.err")" ||
    pool_exit=$?
  pool_err="$(cat "$dir/ci_pool_fault.err")"
  if [[ "$pool_exit" != 5 ||
        "$pool_err" != *"injected fault at thread.start"* ||
        "$pool_out" != *'"faults_escalated": 1'* ]]; then
    echo "==> FAIL: pool fault: exit $pool_exit, stderr '$pool_err'," \
         "metrics '$pool_out'" >&2
    exit 1
  fi
  echo "    pool fault at thread.start: exit 5, typed, faults_escalated 1"
  # `run` and `mc` resolve their entry function through one resolver: a
  # missing function is the same diagnostic and exit 1 from both.
  local run_err mc_err run_exit=0 mc_exit=0
  run_err="$("$fc" run "$ROOT/examples/dll_remove.fls" no_such_fn \
    2>&1 >/dev/null)" || run_exit=$?
  mc_err="$("$fc" mc "$ROOT/examples/dll_remove.fls" no_such_fn \
    2>&1 >/dev/null)" || mc_exit=$?
  if [[ "$run_exit" != 1 || "$mc_exit" != 1 || "$run_err" != "$mc_err" ]]
  then
    echo "==> FAIL: missing entry function: run exit $run_exit" \
         "('$run_err') vs mc exit $mc_exit ('$mc_err')" >&2
    exit 1
  fi
  echo "    missing entry function: exit 1, run and mc agree ('$run_err')"
}

# VM disasm smoke: `disasm` must print the chunks and the statically
# folded `if disconnected` sites. (The VM's check against the recorded
# reference outcomes of every example lives in tests/vm_test.cpp.)
run_vm_smoke() {
  local name="$1" dir="$2"
  local fc="$dir/tools/fearlessc"
  step "[$name] vm disasm smoke"
  "$fc" disasm "$ROOT/examples/dll_remove.fls" | grep -q "chunk main" || {
    echo "==> [$name] FAIL: disasm output missing chunks" >&2
    exit 1
  }
  "$fc" disasm "$ROOT/examples/disconnect_static.fls" |
    grep -q "disconn.elided" || {
    echo "==> [$name] FAIL: disasm did not fold the static sites" >&2
    exit 1
  }
  echo "    disasm: chunks and folded sites present"
}

# Server smoke: start fearlessd, drive check/run/metrics/shutdown
# through `fearlessc --daemon`, and hold the protocol to its contract
# end to end (docs/SERVER.md): daemon stdout/stderr/exit bit-identical
# to standalone on every example program (both the cold and the warm,
# cache-hit path), cache_hits advancing on a repeated request, and a
# draining shutdown that removes the socket. The socket-level abuse
# cases (malformed frames, overload) live in tests/server_test.cpp.
run_server_smoke() {
  local name="$1" dir="$2"
  local fc="$dir/tools/fearlessc" fd="$dir/tools/fearlessd"
  local sock="$dir/ci_server.sock"
  step "[$name] server smoke (fearlessd + --daemon equivalence)"
  # Number flags are digits only and --workers has a ceiling: each of
  # these is a usage error during argument parsing, before any worker
  # thread starts or the socket is bound (the timeout only guards
  # against a daemon that wrongly starts serving).
  local bad
  local -a bad_args
  for bad in "--workers -1" "--workers 1025" "--cache-bytes -1" \
             "--max-frame-bytes -5"; do
    read -r -a bad_args <<<"$bad"
    expect_exit 2 "fearlessd usage ($bad)" \
      timeout 10 "$fd" --socket "$sock" "${bad_args[@]}"
  done
  if [[ -e "$sock" ]]; then
    echo "==> [$name] FAIL: a rejected fearlessd left $sock behind" >&2
    exit 1
  fi
  rm -f "$sock"
  "$fd" --socket "$sock" --workers 2 &
  local fd_pid=$!
  local i
  for i in $(seq 1 200); do [[ -S "$sock" ]] && break; sleep 0.05; done
  if [[ ! -S "$sock" ]]; then
    echo "==> [$name] FAIL: fearlessd never bound $sock" >&2
    kill "$fd_pid" 2>/dev/null || true
    exit 1
  fi

  # Each command twice through the daemon: the first populates the
  # derivation cache, the second must hit it — and both must be
  # byte-identical to the standalone run (stdout, stderr and exit code).
  srv_compare() {
    local label="$1" s_exit=0 d_exit pass
    shift
    "$fc" "$@" >"$dir/ci_srv_s.out" 2>"$dir/ci_srv_s.err" || s_exit=$?
    for pass in cold warm; do
      d_exit=0
      "$fc" --daemon "$sock" "$@" >"$dir/ci_srv_d.out" \
        2>"$dir/ci_srv_d.err" || d_exit=$?
      if [[ "$s_exit" != "$d_exit" ]] ||
         ! cmp -s "$dir/ci_srv_s.out" "$dir/ci_srv_d.out" ||
         ! cmp -s "$dir/ci_srv_s.err" "$dir/ci_srv_d.err"; then
        echo "==> [$name] FAIL: daemon/standalone divergence on" \
             "'$label' ($pass): exit $s_exit vs $d_exit" >&2
        kill "$fd_pid" 2>/dev/null || true
        exit 1
      fi
    done
    echo "    $label: exit $s_exit, cold == warm == standalone"
  }
  # Every option the wire carries, on every example.
  local -a variants=(
    "check" "check --no-oracle" "check --no-checks" "check --no-elide"
    "check --interprocedural=off"
    "run" "run --no-oracle" "run --no-checks" "run --no-elide"
    "run --interprocedural=off" "run --workers 2"
    "analyze --json --summaries"
  )
  local f variant
  local -a words argv
  for f in "$ROOT"/examples/*.fls; do
    for variant in "${variants[@]}"; do
      read -r -a words <<<"$variant"
      argv=("${words[0]}" "$f")
      [[ "${words[0]}" == run ]] && argv+=(main)
      argv+=("${words[@]:1}")
      srv_compare "$variant $(basename "$f")" "${argv[@]}"
    done
  done
  srv_compare "analyze --werror use_after_consumes.fls" \
    analyze --werror "$ROOT/tests/fixtures/use_after_consumes.fls"

  "$fc" --daemon "$sock" metrics >"$dir/ci_srv_metrics.json"
  python3 - "$dir/ci_srv_metrics.json" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    m = json.load(f)
assert m["cache_misses"] >= 1, m
assert m["cache_hits"] >= 1, f"warm requests never hit the cache: {m}"
assert m["requests_rejected"] == 0, m
print(f"    metrics: cache_hits={m['cache_hits']} "
      f"cache_misses={m['cache_misses']} (warm path exercised)")
PYEOF

  "$fc" --daemon "$sock" shutdown >/dev/null
  wait "$fd_pid" || {
    echo "==> [$name] FAIL: fearlessd exited nonzero after shutdown" >&2
    exit 1
  }
  if [[ -e "$sock" ]]; then
    echo "==> [$name] FAIL: socket not removed by draining shutdown" >&2
    exit 1
  fi
  echo "    shutdown: drained, exit 0, socket removed"
}

# Generated-corpus smoke: tools/gen_corpus.py emits a deterministic
# multi-function program per (seed, shape); `analyze --json` must accept
# it in both modes, and the precision gate holds: the interprocedural
# must-* count is never below the intra count on any shape, and strictly
# above it on the shapes built around cross-call disconnect proofs
# (chain, cross) — the whole point of the summary engine.
run_corpus_smoke() {
  local name="$1" dir="$2"
  local fc="$dir/tools/fearlessc"
  for seed in 7 21 42; do
    for shape in chain diamond scc cross mixed; do
      local src="$dir/ci_corpus_${shape}_${seed}.fls"
      python3 "$ROOT/tools/gen_corpus.py" \
        --seed "$seed" --functions 60 --shape "$shape" --out "$src"
      step "[$name] corpus smoke ($shape, seed $seed)"
      "$fc" analyze --json "$src" >"$src.inter.json"
      "$fc" analyze --json --interprocedural=off "$src" >"$src.intra.json"
      python3 - "$shape" "$src.inter.json" "$src.intra.json" <<'PYEOF'
import json, sys
shape = sys.argv[1]
def musts(path):
    with open(path) as f:
        doc = json.load(f)
    assert doc["schema"] == "fearless-analysis-v1", doc.get("schema")
    assert doc["checked"] and not doc["hard_error"], path
    v = doc["verdicts"]
    return v.get("must_disconnected", 0) + v.get("must_connected", 0)
inter, intra = musts(sys.argv[2]), musts(sys.argv[3])
assert inter >= intra, f"{shape}: inter {inter} < intra {intra}"
if shape in ("chain", "cross"):
    assert inter > intra, \
        f"{shape}: interprocedural won nothing ({inter} vs {intra})"
print(f"    must-* verdicts: interprocedural={inter} intra={intra}")
PYEOF
    done
  done
  step "[$name] analysis digests (tests/fixtures/analysis_digests.sha256)"
  if ! diff -u "$ROOT/tests/fixtures/analysis_digests.sha256" \
       <("$ROOT/tools/analysis_digests.sh" "$dir"); then
    echo "==> [$name] FAIL: \`fearlessc analyze\` output changed" >&2
    exit 1
  fi
}

# Parser nesting cap (docs/LANGUAGE.md): one program per kind of nesting
# exactly at the cap of 512 levels must check, analyze and run — under
# AddressSanitizer too, whose larger frames are the tightest stack
# budget — and one level more must be a parse error (exit 3).
run_depth_smoke() {
  local name="$1" dir="$2"
  local fc="$dir/tools/fearlessc"
  step "[$name] nesting-cap smoke"
  python3 - "$dir" <<'PYEOF'
import sys
kinds = {
    "paren": (510, lambda n: "(" * n + "1" + ")" * n),
    "unary": (510, lambda n: "- " * n + "1"),
    "let": (510, lambda n: "".join(f"let x{i} = {i};\n" for i in range(n))
            + "x0"),
    "block": (255, lambda n: "{" * n + "1" + "}" * n),
    "elif": (508, lambda n: "if (true) { 1 } " + "else if (false) { 2 } " * n
             + "else { 3 }"),
    "ifnest": (255, lambda n: "if (true) { " * n + "1" + " } else { 0 }" * n),
}
for kind, (n, body) in kinds.items():
    for tag, size in (("at", n), ("over", n + 1)):
        with open(f"{sys.argv[1]}/ci_depth_{tag}_{kind}.fls", "w") as f:
            f.write("def main() : int {\n" + body(size) + "\n}\n")
PYEOF
  local kind
  for kind in paren unary let block elif ifnest; do
    expect_exit 0 "$kind at the cap: check" \
      "$fc" check "$dir/ci_depth_at_$kind.fls"
    expect_exit 0 "$kind at the cap: analyze" \
      "$fc" analyze "$dir/ci_depth_at_$kind.fls"
    expect_exit 0 "$kind at the cap: run" \
      "$fc" run "$dir/ci_depth_at_$kind.fls" main
    expect_exit 3 "$kind one level over the cap" \
      "$fc" check "$dir/ci_depth_over_$kind.fls"
  done
}

# Long-block smoke: a flat block is not nesting, so no cap applies, and
# every stage must stay linear in its length. A 20k-statement `main`
# must check, analyze and run within 10 s each; a stage quadratic in the
# block length takes tens of seconds here.
run_long_block_smoke() {
  local name="$1" dir="$2"
  local fc="$dir/tools/fearlessc"
  local src="$dir/ci_long_block.fls"
  step "[$name] long-block smoke"
  python3 - "$src" <<'PYEOF'
import sys
with open(sys.argv[1], "w") as f:
    f.write("def main() : int {\nlet x = 0;\nlet y = 1;\n")
    f.write("x = x + y;\ny = y + 1;\n" * 10000)
    f.write("x\n}\n")
PYEOF
  expect_exit 0 "20k-statement block: check" timeout 10 "$fc" check "$src"
  expect_exit 0 "20k-statement block: analyze" \
    timeout 10 "$fc" analyze "$src"
  local out
  out="$(timeout 10 "$fc" run "$src" main)"
  if [[ "$out" != "main(...) = 50005000" ]]; then
    echo "==> FAIL: 20k-statement block: run printed '$out'" >&2
    exit 1
  fi
  echo "    20k-statement block: run: $out"
}

# Model-checker smoke: the erasure-soundness gate (docs/MODELCHECK.md).
# `fearlessc mc` explores the bounded schedule space of every checkable
# example and three generated corpus programs with the dynamic
# reservation checks ERASED (--mc-checks=off) while the §6 invariant
# validators machine-check every small step — zero violations expected
# in both modes (the per-run confluence check covers cross-schedule
# result agreement), and the program *results* must be identical with
# checks on and off (`run` vs `run --no-checks`; the mc step counts
# legitimately differ, since erasing check instructions changes VM
# batch boundaries). Then the seeded deadlock fixture must produce exit
# 7 plus a counterexample schedule that `run --schedule` replays to the
# same failure twice, byte for byte.
run_mc_smoke() {
  local name="$1" dir="$2"
  local fc="$dir/tools/fearlessc"
  step "[$name] model-checker smoke (erasure-soundness gate)"
  local f base on_out off_out run_on run_off
  mc_gate() {
    local src="$1" label="$2"
    on_out="$("$fc" mc "$src" main --mc-depth 20000)"
    off_out="$("$fc" mc "$src" main --mc-depth 20000 --mc-checks=off)"
    if ! grep -q "no violations" <<<"$on_out" ||
       ! grep -q "no violations" <<<"$off_out"; then
      echo "==> [$name] FAIL: mc found a violation on $label:" \
           "'$on_out' / '$off_out'" >&2
      exit 1
    fi
    run_on="$("$fc" run "$src" main)"
    run_off="$("$fc" run "$src" main --no-checks)"
    if [[ "$run_on" != "$run_off" ]]; then
      echo "==> [$name] FAIL: result changed with checks erased on" \
           "$label: '$run_on' vs '$run_off'" >&2
      exit 1
    fi
    echo "    $label: $(head -1 <<<"$off_out" | sed 's/^mc: //')" \
         "(checks erased, results identical)"
  }
  for f in "$ROOT"/examples/*.fls; do
    base="$(basename "$f")"
    # Check-failure demonstration examples cannot be model-checked.
    "$fc" check "$f" >/dev/null 2>&1 || {
      echo "    $base: skipped (not checkable by design)"; continue; }
    mc_gate "$f" "$base"
  done
  for seed in 7 21 42; do
    local src="$dir/ci_mc_corpus_$seed.fls"
    python3 "$ROOT/tools/gen_corpus.py" \
      --seed "$seed" --functions 24 --shape mixed --out "$src"
    mc_gate "$src" "corpus seed $seed"
  done

  # The two-thread pipeline explores a genuinely branching space clean.
  "$fc" mc "$ROOT/examples/msg_pipeline.fls" consumer 2 \
    --spawn producer:2 >/dev/null
  echo "    msg_pipeline consumer/producer: branching space verified"

  # Seeded deadlock fixture: exit 7 + a deterministically replayable
  # counterexample schedule.
  local sched="$dir/ci_mc_deadlock.sched"
  expect_exit 7 "mc counterexample (deadlock fixture)" \
    "$fc" mc "$ROOT/examples/msg_pipeline.fls" consumer 1 \
    --mc-out "$sched"
  [[ -f "$sched" ]] || {
    echo "==> [$name] FAIL: mc did not write $sched" >&2; exit 1; }
  local r1_exit=0 r2_exit=0
  "$fc" run "$ROOT/examples/msg_pipeline.fls" consumer 1 \
    --schedule "$sched" >"$dir/ci_mc_r1.out" 2>&1 || r1_exit=$?
  "$fc" run "$ROOT/examples/msg_pipeline.fls" consumer 1 \
    --schedule "$sched" >"$dir/ci_mc_r2.out" 2>&1 || r2_exit=$?
  if [[ "$r1_exit" == 0 || "$r1_exit" != "$r2_exit" ]] ||
     ! cmp -s "$dir/ci_mc_r1.out" "$dir/ci_mc_r2.out"; then
    echo "==> [$name] FAIL: counterexample replay not deterministic" \
         "(exits $r1_exit/$r2_exit)" >&2
    exit 1
  fi
  echo "    deadlock fixture: exit 7, replay deterministic (exit $r1_exit twice)"
}

# Scheduler smoke: bench_scheduler's FEARLESS_SCHED_SMOKE hook runs the
# 100,000-language-thread token ring to completion on the fixed default
# worker pool and checks the ping-pong park/unpark path allocates nothing
# in steady state. Running it under the TSan pass as well stresses the
# work-stealing + parking protocol with real data-race detection at full
# acceptance scale.
run_sched_smoke() {
  local name="$1" dir="$2"
  step "[$name] scheduler smoke (100k-task ring + allocs_per_iter=0)"
  FEARLESS_SCHED_SMOKE=100000 \
    "$dir/bench/bench_scheduler" --benchmark_filter=NONE 2>&1 |
    grep -v "Failed to match any benchmarks" |
    sed 's/^/    /'
}

# Chaos smoke: bench_concurrency's FEARLESS_FAULTS hook runs the E7
# pipeline under a seeded fault plan and fails if the run hangs
# (watchdog), crashes, loses a thread, or ends in neither the fault-free
# baseline's results nor a typed fault diagnostic. Fixed seeds keep
# failures reproducible; at these rates some seeds fire no fault and
# some fire one, so both endings are exercised.
run_chaos_smoke() {
  local name="$1" dir="$2"
  local spec
  for seed in 1 2 3 4 5 6 7 8; do
    spec="thread.start=prob:0.1,sched.step=prob:0.0005,heap.alloc=prob:0.001,seed=$seed"
    step "[$name] chaos smoke (seed $seed: $spec)"
    FEARLESS_FAULTS="$spec" \
      "$dir/bench/bench_concurrency" --benchmark_filter=NONE 2>&1 |
      sed 's/^/    /'
  done
}

CTEST_ARGS=("$@")

step "[tools] bench_compare self-test"
python3 "$ROOT/tools/bench_compare.py" --self-test
step "[tools] check_docs (doc drift gate)"
python3 "$ROOT/tools/check_docs.py" --self-test
python3 "$ROOT/tools/check_docs.py"

run_pass "default" "$ROOT/build"
run_analyze "default" "$ROOT/build"
run_trace_smoke "default" "$ROOT/build"
run_cli_smoke "default" "$ROOT/build"
run_vm_smoke "default" "$ROOT/build"
run_server_smoke "default" "$ROOT/build"
run_corpus_smoke "default" "$ROOT/build"
run_depth_smoke "default" "$ROOT/build"
run_long_block_smoke "default" "$ROOT/build"
run_mc_smoke "default" "$ROOT/build"
run_sched_smoke "default" "$ROOT/build"
run_chaos_smoke "default" "$ROOT/build"
step "[default] bench smoke"
"$ROOT/tools/bench.sh" --smoke -B "$ROOT/build"
run_pass "tsan" "$ROOT/build-tsan" -DFEARLESS_SANITIZE=thread
# The channel set's single critical section and the scheduler's wake
# chains are the pool's whole synchronization protocol: run its three
# suites three more times under TSan, so a rare interleaving gets more
# chances to show.
step "[tsan] channel/scheduler stress (3 repeats)"
(cd "$ROOT/build-tsan" &&
  ctest --output-on-failure -j "$JOBS" --repeat until-fail:3 \
    -R "^(scheduler_test|concurrency_test|fault_test)\$" "${CTEST_ARGS[@]}")
run_analyze "tsan" "$ROOT/build-tsan"
run_vm_smoke "tsan" "$ROOT/build-tsan"
run_server_smoke "tsan" "$ROOT/build-tsan"
run_sched_smoke "tsan" "$ROOT/build-tsan"
run_chaos_smoke "tsan" "$ROOT/build-tsan"

# ASan pass over the front end, the analysis, the checker, the baselines
# and the runtime: every AST walk descends through the callbacks of one
# forEachChild, the summary engine and the corpus generator push the
# analyzer over thousands of functions, the typing contexts are sorted
# flat vectors whose inserts and erases invalidate references into them,
# and every thread runs bytecode over a register stack its ThreadState
# owns.
# AddressSanitizer on those unit tests and on the same corpus smoke
# catches lifetime bugs the default pass would miss.
ASAN_TESTS=(support_test lexer_test parser_test regions_test checker_test
            verifier_test unify_test virtual_test signature_test analysis_test
            soundness_test property_test baselines_test vm_test
            machine_test mc_test fault_test trace_test invariants_test
            concurrency_test runtime_test)
step "[asan] configure + build (FEARLESS_SANITIZE=address)"
cmake -B "$ROOT/build-asan" -S "$ROOT" -DFEARLESS_SANITIZE=address >/dev/null
cmake --build "$ROOT/build-asan" -j "$JOBS" --target fearlessc \
  "${ASAN_TESTS[@]}"
step "[asan] checker-side and runtime unit tests"
(cd "$ROOT/build-asan" &&
  ctest --output-on-failure -j "$JOBS" \
    -R "^($(IFS='|'; echo "${ASAN_TESTS[*]}"))\$" "${CTEST_ARGS[@]}")
run_corpus_smoke "asan" "$ROOT/build-asan"
run_depth_smoke "asan" "$ROOT/build-asan"
run_long_block_smoke "asan" "$ROOT/build-asan"

close_step
close_pass
echo "==> slowest steps (seconds):"
printf '%s\n' "${STEP_TIMES[@]}" | sort -rn | head -5 | sed 's/^/    /'
echo "==> all passes green"
