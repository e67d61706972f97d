#!/usr/bin/env bash
#===- tools/analysis_digests.sh -------------------------------------------===#
#
# Part of the fearless-concurrency reproduction.
#
#===----------------------------------------------------------------------===#
#
# Prints one line per (program, mode): the sha256 of `fearlessc analyze`
# stdout, the program and the exit status. The programs are the 15
# corpus-smoke programs (gen_corpus.py, 60 functions, seeds 7/21/42 x
# five shapes), examples/*.fls, tests/fixtures/*.fls and the embedded
# samples; the modes are `--json` and `--summaries`.
#
# tools/ci.sh diffs this output against the committed
# tests/fixtures/analysis_digests.sha256, which pins the analysis output
# byte for byte across changes to the analyzer. Regenerate the file only
# for an intended output change:
#
#   tools/analysis_digests.sh build > tests/fixtures/analysis_digests.sha256
#
#===----------------------------------------------------------------------===#

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:?usage: tools/analysis_digests.sh BUILD_DIR}"
FC="$BUILD/tools/fearlessc"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

digest() {
  local label="$1" status=0 out
  shift
  out="$("$FC" analyze "$@")" || status=$?
  printf '%s  %s exit=%d\n' \
    "$(printf '%s\n' "$out" | sha256sum | cut -d' ' -f1)" "$label" "$status"
}

progs=()
for seed in 7 21 42; do
  for shape in chain diamond scc cross mixed; do
    src="$WORK/ci_corpus_${shape}_${seed}.fls"
    python3 "$ROOT/tools/gen_corpus.py" \
      --seed "$seed" --functions 60 --shape "$shape" --out "$src"
    progs+=("$src")
  done
done
progs+=("$ROOT"/examples/*.fls "$ROOT"/tests/fixtures/*.fls)

for src in "${progs[@]}"; do
  rel="${src#"$WORK/"}"
  rel="${rel#"$ROOT/"}"
  for mode in --json --summaries; do
    digest "$rel analyze $mode" "$mode" "$src"
  done
done
digest "samples analyze --summaries" --summaries --samples
