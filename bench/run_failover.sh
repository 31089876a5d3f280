#!/usr/bin/env sh
# Sanitizer pass over the replicated control plane (DESIGN.md §14).
#
#   bench/run_failover.sh [asan_build_dir] [tsan_build_dir]
#
# The master-failover path is the most concurrent code in the repo: three
# replica threads exchanging Raft frames, worker threads re-sending cached
# replies after redirects, and crash schedules that kill a leader thread
# mid-round.  Every protocol change gets two sanitizer passes:
#
#   1. ASan+UBSan (-DCMFL_SANITIZE=address,undefined) — memory errors and
#      UB in the wire codecs and log/snapshot handling.
#   2. TSan (-DCMFL_SANITIZE=thread) — data races across the
#      replica/worker thread fabric.  TSan slows the tests ~10x; the round
#      deadlines in the failover tests are sized so that margin holds.
#
# Both passes run the `failover`- and `durability`-labelled ctest suites
# (test_net_replicated, test_util_durable_file, test_net_durable) plus the
# raft unit tests, i.e. the same binaries
#   ctest -L 'failover|durability'
# selects in a regular build.  UBSAN_OPTIONS=halt_on_error=1 makes any UBSan
# report fail the pass instead of printing and carrying on.
set -eu

export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
ASAN_DIR="${1:-$REPO_ROOT/build-asan}"
TSAN_DIR="${2:-$REPO_ROOT/build-tsan}"

TARGETS="test_net_raft test_net_replicated test_util_durable_file test_net_durable"

run_suite() {
  build_dir="$1"
  label="$2"
  for t in $TARGETS; do
    echo "== $t ($label) =="
    "$build_dir/tests/$t"
  done
}

echo "=== pass 1: AddressSanitizer + UndefinedBehaviorSanitizer ==="
cmake -B "$ASAN_DIR" -S "$REPO_ROOT" -DCMFL_SANITIZE=address,undefined \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
# shellcheck disable=SC2086
cmake --build "$ASAN_DIR" -j "$(nproc)" --target $TARGETS
run_suite "$ASAN_DIR" "ASan+UBSan"

echo "=== pass 2: ThreadSanitizer ==="
cmake -B "$TSAN_DIR" -S "$REPO_ROOT" -DCMFL_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
# shellcheck disable=SC2086
cmake --build "$TSAN_DIR" -j "$(nproc)" --target $TARGETS
run_suite "$TSAN_DIR" "TSan"

echo "failover + durability suites clean under ASan+UBSan and TSan"
