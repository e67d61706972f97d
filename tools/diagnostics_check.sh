#!/usr/bin/env bash
#===- tools/diagnostics_check.sh ------------------------------------------===#
#
# Part of the fearless-concurrency reproduction.
#
#===----------------------------------------------------------------------===#
#
# Pins the front end's diagnostic rule: a source with any lexical error
# reports every lexical error in source order and nothing from the
# parser; otherwise it reports the parser's output. For each
# tests/fixtures/diagnostics/NAME.fls, `fearlessc check` must print to
# stderr exactly the lines of NAME.expected before its last, and exit with
# the code that last line (`exit N`) names.
#
# Usage: tools/diagnostics_check.sh BUILD_DIR
#
#===----------------------------------------------------------------------===#

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${1:?usage: tools/diagnostics_check.sh BUILD_DIR}"
FC="$(cd "$BUILD" && pwd)/tools/fearlessc"

failed=0
for src in "$ROOT"/tests/fixtures/diagnostics/*.fls; do
  expected="${src%.fls}.expected"
  code=0
  actual="$("$FC" check "$src" 2>&1 >/dev/null; echo "exit $?")" || code=$?
  if [[ "$code" != 0 ]] || ! diff -u "$expected" <(printf '%s\n' "$actual")
  then
    echo "FAIL: $(basename "$src")" >&2
    failed=1
  fi
done
[[ "$failed" == 0 ]] && echo "diagnostic fixtures match"
exit "$failed"
