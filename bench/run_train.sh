#!/usr/bin/env sh
# Runs the hot-path correctness gates (allocation regression + conv im2col
# equivalence) under AddressSanitizer+UBSan, then records the end-to-end
# training benchmark into <build_dir>/BENCH_train.json from a Release build.
# The tracked baseline BENCH_train.json at the repo root is never rewritten:
# the script ends by printing the `cp` that would update it.
#
#   bench/run_train.sh [build_dir] [--benchmark_* flags...]
#
# Steps:
#   1. Build test_nn_alloc + test_nn_conv_im2col with
#      -DCMFL_SANITIZE=address,undefined (dir <build_dir>-asan-ubsan) and
#      run them, so the workspace-reuse paths are exercised under ASan and
#      UBSan before a baseline is recorded; a noisy speed floor below cannot
#      skip this gate.
#   2. Configure/build bench_train with -DCMAKE_BUILD_TYPE=Release
#      (default dir build-release/) and record BENCH_train.json.
#   3. Verify the JSON's `cmfl_build_type` stamp says Release (the
#      library_build_type key only describes libbenchmark) — fail loudly
#      otherwise.
#   4. Verify the im2col/GEMM CNN path is >= 2x the retained naive path
#      (BM_TrainStep_CNN vs BM_TrainStep_CNN_NaiveRef steps/sec), and —
#      when the binary reports cmfl_simd=avx2-fma — that the vector-tier
#      step (BM_TrainStep_CNN_Fast) clears its own higher floor of 3x the
#      naive path.  The kernel thread setting honors CMFL_THREADS when set
#      (auto otherwise); the tracked baseline is single-core.
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

# --- ASan+UBSan gate over the hot-path correctness tests ---
ASAN_DIR="${BUILD_DIR}-asan-ubsan"
cmake -B "$ASAN_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMFL_SANITIZE=address,undefined
cmake --build "$ASAN_DIR" -j "$(nproc)" --target test_nn_alloc test_nn_conv_im2col
"$ASAN_DIR/tests/test_nn_conv_im2col"
"$ASAN_DIR/tests/test_nn_alloc"
echo "ASan+UBSan hot-path gates passed"

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_train

OUT="$BUILD_DIR/BENCH_train.json"
# Repetitions + median comparison: the tracked ratio must not depend on a
# noise burst hitting one benchmark of the pair.
"$BUILD_DIR/bench/bench_train" --benchmark_out="$OUT" \
                               --benchmark_out_format=json \
                               --benchmark_repetitions=7 \
                               --benchmark_report_aggregates_only=true "$@"

if ! grep -q '"cmfl_build_type": "Release"' "$OUT"; then
  echo "ERROR: $OUT was not recorded from a Release build" >&2
  echo "       (cmfl_build_type context: $(grep -o '"cmfl_build_type":[^,]*' "$OUT" || echo missing))" >&2
  exit 1
fi

# steps/sec ratios: the bit-exact im2col/GEMM CNN step must be >= 2x the
# naive path, and the vector tier must clear its own higher 3x floor when
# the host actually ran AVX2/FMA (cmfl_simd stamp).
python3 - "$OUT" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
rate = {b["name"]: b["items_per_second"]
        for b in data["benchmarks"]
        if "items_per_second" in b}
def median_rate(name):
    return rate.get(name + "_median", rate.get(name))
naive = median_rate("BM_TrainStep_CNN_NaiveRef")
ratio = median_rate("BM_TrainStep_CNN") / naive
print(f"CNN steps/sec ratio (im2col vs naive): {ratio:.2f}x")
if ratio < 2.0:
    print(f"ERROR: im2col CNN path is {ratio:.2f}x the naive path "
          "(< 2x floor)", file=sys.stderr)
    sys.exit(1)
if data["context"].get("cmfl_simd") == "avx2-fma":
    fast = median_rate("BM_TrainStep_CNN_Fast")
    fast_ratio = fast / naive
    print(f"CNN steps/sec ratio (vector tier vs naive): {fast_ratio:.2f}x")
    if fast_ratio < 3.0:
        print(f"ERROR: vector-tier CNN path is {fast_ratio:.2f}x the naive "
              "path (< 3x floor)", file=sys.stderr)
        sys.exit(1)
else:
    print("cmfl_simd != avx2-fma: vector-tier floor skipped")
EOF
echo "wrote $OUT (Release provenance + CNN floors verified)"
echo "to update the tracked baseline: cp $OUT $REPO_ROOT/BENCH_train.json"
