#!/usr/bin/env bash
#===- tools/analysis_digests.sh -------------------------------------------===#
#
# Part of the fearless-concurrency reproduction.
#
#===----------------------------------------------------------------------===#
#
# Prints one line per (program, command): the sha256 of the `fearlessc`
# command's stdout, the program, the command and the exit status. The
# programs are the 15 corpus-smoke programs (gen_corpus.py, 60
# functions, seeds 7/21/42 x five shapes), examples/*.fls,
# tests/fixtures/*.fls and the embedded samples. The commands are:
#   - `analyze --json` and `analyze --summaries` for every program;
#   - `check --stats` for every program file (run in the file's
#     directory, since the output names the file as given);
#   - `derive FILE FN` and `dot FILE FN` for every `def` in
#     examples/*.fls;
#   - `derive FILE main` for every corpus-smoke program that defines
#     `main`;
#   - `run FILE main --stats` and `run FILE main --no-checks --stats`
#     for every program that defines `main`.
#
# tools/ci.sh diffs this output against the committed
# tests/fixtures/analysis_digests.sha256, which pins the analysis
# output, the checker's and verifier's counts, the typing derivations
# (as text and as Graphviz) and the run results and runtime counts byte
# for byte across changes to the analyzer, checker, verifier and
# runtime. Regenerate the file only for an intended output change:
#
#   tools/analysis_digests.sh build > tests/fixtures/analysis_digests.sha256
#
# tools/analyzer_digests_check.sh sources this file to recompute only the
# analyzer's lines (`analyze` and `check --stats`) in seconds; ctest runs
# it as `analyzer_digests`.
#
#===----------------------------------------------------------------------===#

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# digest LABEL DIR ARGS...: digests the stdout of `$FC ARGS` run in DIR.
digest() {
  local label="$1" dir="$2" status=0 out
  shift 2
  out="$(cd "$dir" && "$FC" "$@" 2>/dev/null)" || status=$?
  printf '%s  %s exit=%d\n' \
    "$(printf '%s\n' "$out" | sha256sum | cut -d' ' -f1)" "$label" "$status"
}

# collect_programs: writes the corpus-smoke programs to $WORK and lists
# every program in the array `progs`.
collect_programs() {
  progs=()
  local seed shape src
  for seed in 7 21 42; do
    for shape in chain diamond scc cross mixed; do
      src="$WORK/ci_corpus_${shape}_${seed}.fls"
      python3 "$ROOT/tools/gen_corpus.py" \
        --seed "$seed" --functions 60 --shape "$shape" --out "$src"
      progs+=("$src")
    done
  done
  progs+=("$ROOT"/examples/*.fls "$ROOT"/tests/fixtures/*.fls)
}

# analyzer_digests: the `analyze --json`, `analyze --summaries` and
# `check --stats` lines.
analyzer_digests() {
  local src rel mode
  for src in "${progs[@]}"; do
    rel="${src#"$WORK/"}"
    rel="${rel#"$ROOT/"}"
    for mode in --json --summaries; do
      digest "$rel analyze $mode" "$WORK" analyze "$mode" "$src"
    done
  done
  digest "samples analyze --summaries" "$WORK" analyze --summaries --samples

  for src in "${progs[@]}"; do
    rel="${src#"$WORK/"}"
    rel="${rel#"$ROOT/"}"
    digest "$rel check --stats" "$(dirname "$src")" \
      check --stats "$(basename "$src")"
  done
}

# derivation_and_run_digests: the `derive`, `dot` and `run` lines.
derivation_and_run_digests() {
  local src rel fn
  for src in "$ROOT"/examples/*.fls; do
    rel="${src#"$ROOT/"}"
    for fn in $(sed -n 's/^def \([A-Za-z_][A-Za-z0-9_]*\).*/\1/p' "$src"); do
      digest "$rel derive $fn" "$WORK" derive "$src" "$fn"
    done
  done

  for src in "$ROOT"/examples/*.fls; do
    rel="${src#"$ROOT/"}"
    for fn in $(sed -n 's/^def \([A-Za-z_][A-Za-z0-9_]*\).*/\1/p' "$src"); do
      digest "$rel dot $fn" "$WORK" dot "$src" "$fn"
    done
  done

  for src in "${progs[@]}"; do
    [[ "$src" == "$WORK/"* ]] || continue
    grep -q '^def main(' "$src" || continue
    digest "${src#"$WORK/"} derive main" "$WORK" derive "$src" main
  done

  for src in "${progs[@]}"; do
    grep -q '^def main(' "$src" || continue
    rel="${src#"$WORK/"}"
    rel="${rel#"$ROOT/"}"
    digest "$rel run main --stats" "$WORK" run "$src" main --stats
    digest "$rel run main --no-checks --stats" "$WORK" \
      run "$src" main --no-checks --stats
  done
}

if [[ "${BASH_SOURCE[0]}" == "$0" ]]; then
  BUILD="${1:?usage: tools/analysis_digests.sh BUILD_DIR}"
  FC="$(cd "$BUILD" && pwd)/tools/fearlessc"
  WORK="$(mktemp -d)"
  trap 'rm -rf "$WORK"' EXIT
  collect_programs
  analyzer_digests
  derivation_and_run_digests
fi
