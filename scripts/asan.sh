#!/usr/bin/env bash
# Build the tests that parse bytes from outside the program under
# AddressSanitizer (with its leak checker) and run them: the ROS container
# format and its corruption enumeration (test_columnar), the object stores
# (test_storage), the file cache (test_cache), store fault injection
# (test_fault_injection) and the store-side near-data scan
# (test_pushdown); the write path (test_wos), whose Tuple Mover thread
# can still be running a moveout when a cluster is torn down; and two
# more callers of the shared group fold (columnar/agg.h), whose counting
# sort and first-row gathers index into column arrays: live-aggregate
# maintenance (test_live_aggregate) and the whole-query differential
# (test_parallel_differential).
# Uses a separate build directory so the normal build/ stays
# sanitizer-free.
#
#   scripts/asan.sh            # configure + build + run
#   BUILD_DIR=out scripts/asan.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-asan}"
TESTS="test_columnar test_storage test_cache test_fault_injection test_pushdown test_wos test_live_aggregate test_parallel_differential"

cmake -B "$BUILD_DIR" -S . -DEON_SANITIZE=address \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
# shellcheck disable=SC2086
cmake --build "$BUILD_DIR" --target $TESTS -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -R "^(${TESTS// /|})\$" --output-on-failure
