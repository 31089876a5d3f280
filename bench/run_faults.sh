#!/usr/bin/env sh
# Sanitizer pass over the fault-tolerant single-master net stack.
#
#   bench/run_faults.sh [asan_build_dir] [tsan_build_dir]
#
# The fault-injected cluster protocol — worker threads, deadline-bounded
# receives, retransmissions, the shared open-round ledger — gets two
# sanitizer passes on every protocol change, as the replicated control plane
# does in bench/run_failover.sh:
#
#   1. ASan+UBSan (-DCMFL_SANITIZE=address,undefined) — memory errors and
#      UB in the wire codecs, frame handling and reply intake.
#   2. TSan (-DCMFL_SANITIZE=thread) — data races between the master and
#      the worker threads.  TSan slows the tests ~10x; the round deadlines
#      in the cluster tests are sized so that margin still holds.
#
# Both passes run the four net-layer test binaries (test_net_wire,
# test_net_link, test_net_fault, test_net_cluster).  The build trees are the
# ones bench/run_failover.sh uses.  UBSAN_OPTIONS=halt_on_error=1 makes any
# UBSan report fail the pass instead of printing and carrying on.
set -eu

export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
ASAN_DIR="${1:-$REPO_ROOT/build-asan}"
TSAN_DIR="${2:-$REPO_ROOT/build-tsan}"

TARGETS="test_net_wire test_net_link test_net_fault test_net_cluster"

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

echo "net tests clean under ASan+UBSan and TSan"
