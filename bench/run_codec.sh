#!/usr/bin/env sh
# Records the codec-throughput benchmark into <build_dir>/BENCH_codec.json
# from a Release build, then re-runs the `codec`-labeled test suite (codec
# round-trip/state tests plus the exhaustive malformed-payload matrices)
# under AddressSanitizer+UBSan.  The tracked baseline BENCH_codec.json at the
# repo root is never rewritten: the script ends by printing the `cp` that
# would update it.
#
#   bench/run_codec.sh [build_dir] [--benchmark_* flags...]
#
# The build dir (default build-release/) is configured
# -DCMAKE_BUILD_TYPE=Release; a tracked baseline recorded from a debug or
# unoptimized binary is meaningless, so the script verifies the binary's own
# build-type stamp in the recorded JSON (custom context `cmfl_build_type`)
# and fails loudly on a mismatch.  The JSON also carries a `cmfl_simd` stamp
# recording whether the sign codec's SignPack ran the AVX2 tier on this
# host.  Compare a fresh run against the checked-in baseline before merging
# any change that touches src/codec/ — regressions must be explained.
set -eu

# Any UBSan report fails the sanitizer pass instead of printing and carrying
# on.
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR="$REPO_ROOT/build-release"
case "${1:-}" in
  --*) ;;                        # first arg is a benchmark flag, keep default
  "") ;;
  *) BUILD_DIR=$1; shift ;;
esac

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_codec

OUT="$BUILD_DIR/BENCH_codec.json"
"$BUILD_DIR/bench/bench_codec" --benchmark_out="$OUT" \
                               --benchmark_out_format=json "$@"

if ! grep -q '"cmfl_build_type": "Release"' "$OUT"; then
  echo "ERROR: $OUT was not recorded from a Release build" >&2
  echo "       (cmfl_build_type context: $(grep -o '"cmfl_build_type":[^,]*' "$OUT" || echo missing))" >&2
  exit 1
fi
if ! grep -q '"cmfl_simd": "' "$OUT"; then
  echo "ERROR: $OUT carries no cmfl_simd provenance stamp" >&2
  exit 1
fi
SIMD=$(grep -o '"cmfl_simd": "[^"]*"' "$OUT" | cut -d'"' -f4)
echo "wrote $OUT (Release provenance verified, simd=$SIMD)"

# --- ASan+UBSan gate over the codec test suite ---
# The decode paths parse attacker-shaped bytes (the malformed matrices flip
# every bit and truncate at every length); they must stay clean under
# address+undefined before a baseline recorded from this tree is accepted.
ASAN_DIR="${BUILD_DIR}-asan-ubsan"
cmake -B "$ASAN_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMFL_SANITIZE=address,undefined
cmake --build "$ASAN_DIR" -j "$(nproc)" --target test_codec test_codec_malformed
(cd "$ASAN_DIR" && ctest -L codec --output-on-failure)
echo "ASan+UBSan codec gates passed"
echo "to update the tracked baseline: cp $OUT $REPO_ROOT/BENCH_codec.json"
