#!/usr/bin/env bash
# Build bench_e2e from the sources of this checkout, then run it with the
# given arguments. Run from the repository root:
#
#   bash bench/e2e/run.sh --workload via-rule --seed 7 --seconds 10 --trace 0
#   bash bench/e2e/run.sh --seed 42                 # all workloads
#
# Build output goes to stderr, so the last line of stdout stays the
# benchmark's JSON result.
set -euo pipefail

build=.bench_build/e2e
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target bench_e2e -j 4 >&2
exec "$build/bench_e2e" "$@"
