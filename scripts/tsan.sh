#!/usr/bin/env bash
# Build the concurrency-sensitive tests under ThreadSanitizer and run
# everything labeled `race` (see tests/CMakeLists.txt). This covers the
# parallel differential suite (crunch × pool width), so encoded predicate
# evaluation and selective decode run under TSan at every width; the
# Data Collector rings (producers vs snapshot readers, test_obs); and
# system-table scans racing exec-pool query producers
# (test_system_tables); and the async prefetch pipeline — I/O-pool
# prefetches racing demand fetches, pinned readers, and eviction churn at
# every read-ahead depth and exec width (test_prefetch); and the serving
# layer — concurrent submits/cancels against the admission slot ledger
# plus many wire clients on one server (test_admission); and near-data
# ScanObject pushdown racing against one store (test_pushdown); and traced
# queries — span producers on the exec and I/O pools racing dc_trace_spans
# scans (test_trace); and the write path — concurrent committers racing
# the group-commit leader (test_wal) plus moveout + inserts racing
# union-scan queries and the cluster's Tuple Mover thread (test_wos),
# with the moveout's uploads, flush-marker
# commits and log-truncation deletes running on I/O-pool lanes
# (ParallelFor, whose concurrent callers test_common races). Uses a
# separate build directory so the normal build/ stays sanitizer-free.
#
# A second configuration builds with -DEON_SIMD=off (every kernel pinned to
# the scalar reference) and reruns the kernel differentials and the
# parallel differential suite, so the scalar fallback paths get the same
# TSan coverage as the dispatched SIMD ones.
#
#   scripts/tsan.sh            # configure + build + run
#   BUILD_DIR=out scripts/tsan.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DEON_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
# The `race` label in tests/CMakeLists.txt is the one list of what runs
# here: every test it names is built from the target of the same name.
mapfile -t RACE_TESTS < <(ctest --test-dir "$BUILD_DIR" -N -L race |
                          sed -n 's/^ *Test *#[0-9]*: *//p')
if [ "${#RACE_TESTS[@]}" -eq 0 ]; then
  echo "tsan.sh: no race-labelled tests found" >&2
  exit 1
fi
cmake --build "$BUILD_DIR" --target "${RACE_TESTS[@]}" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -L race --output-on-failure

SIMD_OFF_DIR="${SIMD_OFF_DIR:-${BUILD_DIR}-simd-off}"

cmake -B "$SIMD_OFF_DIR" -S . -DEON_SANITIZE=thread -DEON_SIMD=off \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$SIMD_OFF_DIR" \
      --target test_kernels test_parallel_differential \
      -j "$(nproc)"
ctest --test-dir "$SIMD_OFF_DIR" \
      -R 'test_kernels|test_parallel_differential' --output-on-failure
