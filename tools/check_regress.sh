#!/usr/bin/env bash
# Local mirror of the CI "regress" job: build bench_perf, then gate fresh
# measurements against every committed BENCH_*.json baseline that
# --mode=regress knows how to re-measure (kernel speedup, figure accuracy,
# observability overhead).
#
# Usage: tools/check_regress.sh [build-dir] [extra bench_perf flags...]
#   tools/check_regress.sh                 # build/ with default tolerance
#   tools/check_regress.sh build --regress-abs   # also gate absolute timings
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
shift || true

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j --target bench_perf

exec "./$BUILD_DIR/bench/bench_perf" --mode=regress \
  --baseline=BENCH_pr2.json \
  --baseline=BENCH_fig9.json \
  --regress-tol=35 "$@"
