#!/usr/bin/env bash
# Repeat every race-labelled test N times and count outcomes per test
# case. The race label in tests/CMakeLists.txt is the one list (the same
# one scripts/tsan.sh builds): each listed ctest is the gtest binary of
# the same name, run here with --gtest_repeat=N. Prints one line per test
# case, "<binary> <Suite.Case> pass=<p> fail=<f>", and exits nonzero when
# any case failed in any repeat. Extra arguments go to every binary, e.g.
# a --gtest_filter to repeat one case.
#
#   scripts/race_repeat.sh 300
#   scripts/race_repeat.sh 300 --gtest_filter='WosTest.Instance*'
#   BUILD_DIR=build-tsan scripts/race_repeat.sh 20
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -lt 1 ] || ! [[ "$1" =~ ^[1-9][0-9]*$ ]]; then
  echo "usage: scripts/race_repeat.sh N [gtest args...]" >&2
  exit 2
fi
REPEAT="$1"
shift

BUILD_DIR="${BUILD_DIR:-build}"
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -B "$BUILD_DIR" -S .
fi
mapfile -t RACE_TESTS < <(ctest --test-dir "$BUILD_DIR" -N -L race |
                          sed -n 's/^ *Test *#[0-9]*: *//p')
if [ "${#RACE_TESTS[@]}" -eq 0 ]; then
  echo "race_repeat.sh: no race-labelled tests found" >&2
  exit 1
fi
cmake --build "$BUILD_DIR" --target "${RACE_TESTS[@]}" -j "$(nproc)"

LOG="$(mktemp)"
trap 'rm -f "$LOG"' EXIT
status=0
for t in "${RACE_TESTS[@]}"; do
  bin="$BUILD_DIR/tests/$t"
  rc=0
  "$bin" --gtest_repeat="$REPEAT" "$@" > "$LOG" 2>&1 || rc=$?
  # Per-iteration result lines carry a "(N ms)" suffix; the end-of-run
  # summary lines do not, so they are not double-counted.
  awk -v bin="$t" '
      /^\[       OK \] .* \([0-9]+ ms\)$/ { pass[$4]++; seen[$4] = 1 }
      /^\[  FAILED  \] .* \([0-9]+ ms\)$/ { fail[$4]++; seen[$4] = 1 }
      END {
        for (c in seen) {
          printf "%s %s pass=%d fail=%d\n", bin, c, pass[c] + 0, fail[c] + 0
        }
      }' "$LOG" | sort
  if [ "$rc" -ne 0 ]; then
    # Failed cases are counted above; a crash shows up only here.
    echo "$t exited with status $rc (last lines follow)"
    tail -n 5 "$LOG"
    status=1
  fi
done
exit "$status"
