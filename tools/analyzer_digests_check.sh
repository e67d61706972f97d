#!/usr/bin/env bash
#===- tools/analyzer_digests_check.sh ------------------------------------===#
#
# Part of the fearless-concurrency reproduction.
#
#===----------------------------------------------------------------------===#
#
# Recomputes the analyzer's lines of tests/fixtures/analysis_digests.sha256
# (`analyze --json`, `analyze --summaries` and `check --stats` over every
# program tools/analysis_digests.sh covers) and diffs them against the
# same lines of the committed file. It takes seconds, so ctest runs it
# and catches analyzer output drift between full tools/ci.sh runs, which
# check every line of the file.
#
# Usage: tools/analyzer_digests_check.sh BUILD_DIR
#
#===----------------------------------------------------------------------===#

set -euo pipefail

source "$(dirname "${BASH_SOURCE[0]}")/analysis_digests.sh"

BUILD="${1:?usage: tools/analyzer_digests_check.sh BUILD_DIR}"
FC="$(cd "$BUILD" && pwd)/tools/fearlessc"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

collect_programs
if ! diff -u \
     <(grep -E ' (analyze --(json|summaries)|check --stats) exit=[0-9]+$' \
         "$ROOT/tests/fixtures/analysis_digests.sha256") \
     <(analyzer_digests); then
  echo "analyzer output differs from tests/fixtures/analysis_digests.sha256" >&2
  exit 1
fi
echo "analyzer digests match ($(grep -cE ' (analyze --(json|summaries)|check --stats) exit=' \
  "$ROOT/tests/fixtures/analysis_digests.sha256") lines)"
