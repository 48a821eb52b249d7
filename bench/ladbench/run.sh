#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources (first run only; later
# runs find the build up to date) and runs it with the given arguments:
#
#   bash bench/ladbench/run.sh --workload train-mle --seed 1 --seconds 20 --trace 0
#
# Run from the repository root.  Build output goes to stderr and to
# ${CARGO_TARGET_DIR:-.bench_build}; result files to <build dir>/results.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
jobs="$(nproc)"
if (( jobs > 4 )); then jobs=4; fi

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target lad_benchmark -j "$jobs" >&2

exec "$build/lad_benchmark" --out "$build/results" "$@"
