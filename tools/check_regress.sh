#!/usr/bin/env bash
# The perf regression gate, run as-is by the CI "regress" job and locally:
# build bench_perf, then gate fresh measurements against every committed
# BENCH_*.json baseline that --mode=regress knows how to re-measure (kernel
# speedup, figure accuracy, observability overhead). This is the one list
# of baselines. BENCH_pr21.json records its dispatched ISA: its ns per
# (cell, antenna) gate runs under --regress-abs on a machine that
# dispatches the same ISA and logs as skipped otherwise.
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
  --baseline=BENCH_pr21.json \
  --regress-tol=35 "$@"
