#!/usr/bin/env sh
# Sanitizer pass over the robustness layer: adversary wrappers, robust
# aggregation / update validation, the checkpoint codec, and the sealed-file
# corruption matrices.
#
#   bench/run_robust.sh [asan_build_dir] [ubsan_build_dir]
#
# Runs the four robustness test suites twice — once under AddressSanitizer
# and once under UndefinedBehaviorSanitizer.  This code path deliberately
# manufactures NaN/±inf updates, bit-flipped headers, and truncated files;
# UBSan proves the defenses themselves commit no undefined behaviour while
# handling hostile bytes, ASan that the corruption paths never over-read.
# UBSAN_OPTIONS=halt_on_error=1 makes any UBSan report fail the pass instead
# of printing and carrying on.
set -eu

export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
ASAN_DIR="${1:-$REPO_ROOT/build-asan}"
UBSAN_DIR="${2:-$REPO_ROOT/build-ubsan}"

TARGETS="test_util_durable_file test_fl_robust_agg test_fl_adversary test_fl_checkpoint"

run_suite() {
  dir=$1
  sanitizer=$2
  cmake -B "$dir" -S "$REPO_ROOT" -DCMFL_SANITIZE="$sanitizer" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  # shellcheck disable=SC2086  # TARGETS is a deliberate word list
  cmake --build "$dir" -j "$(nproc)" --target $TARGETS
  for t in $TARGETS; do
    echo "== $t ($sanitizer) =="
    "$dir/tests/$t"
  done
}

run_suite "$ASAN_DIR" address
run_suite "$UBSAN_DIR" undefined
echo "all robustness tests clean under ASan and UBSan"
