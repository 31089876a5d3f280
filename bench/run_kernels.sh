#!/usr/bin/env sh
# Records the kernel-throughput benchmark into <build_dir>/BENCH_kernels.json
# from a Release build, then re-runs the SIMD equivalence tests under
# AddressSanitizer+UBSan.  The tracked baseline BENCH_kernels.json at the
# repo root is never rewritten: the script ends by printing the `cp` that
# would update it.
#
#   bench/run_kernels.sh [build_dir] [--benchmark_* flags...]
#
# The build dir (default build-release/) is configured
# -DCMAKE_BUILD_TYPE=Release; a tracked baseline recorded from a debug or
# unoptimized binary is meaningless, so the script verifies the binary's own
# build-type stamp in the recorded JSON (custom context `cmfl_build_type` —
# the library_build_type key only describes how libbenchmark was compiled;
# with the vendored benchmark_lite it reads "release" by construction) and
# fails loudly on a mismatch.  The JSON also carries a `cmfl_simd` stamp
# ("avx2-fma" or "scalar") recording whether the *_Fast tier rows actually
# ran vector kernels on this host; the script requires the stamp to be
# present.  Compare a fresh run against the checked-in baseline before
# merging any change that touches tensor/kernels*.cpp — regressions must be
# explained.
#
# Thread pinning: the MT roofline rows (BM_GemmNN_MT/N, BM_GemmNN_FastMT/N)
# pin their own worker counts in-process.  A row with more workers than the
# host has CPUs (`nproc`) would time the scheduler, not the kernel, so the
# script skips it and says so loudly.  Everything else honors the
# CMFL_THREADS environment variable when the kernel thread setting is auto,
# e.g. `CMFL_THREADS=1 bench/run_kernels.sh` for a fully serial record.
#
# The sanitizer gate at the end runs with UBSAN_OPTIONS=halt_on_error=1, so
# any UBSan report fails the script instead of scrolling past.
set -eu

export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR="$REPO_ROOT/build-release"
case "${1:-}" in
  --*) ;;                        # first arg is a benchmark flag, keep default
  "") ;;
  *) BUILD_DIR=$1; shift ;;
esac

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j --target bench_kernels

# --- Oversubscription guard: skip MT rows with more workers than CPUs ---
MT_THREADS="1 2 4"  # the ->Arg(threads) list of the MT rows (bench_kernels.cpp)
NPROC=$(nproc)
OVER=""
for t in $MT_THREADS; do
  if [ "$t" -gt "$NPROC" ]; then OVER="${OVER:+$OVER|}$t"; fi
done
if [ -n "$OVER" ]; then
  echo "##################################################################" >&2
  echo "## SKIPPING MT rows with $(echo "$OVER" | tr '|' ',') threads: this host has" >&2
  echo "## nproc=$NPROC CPUs, and an oversubscribed row is not a kernel rate." >&2
  echo "##################################################################" >&2
  # Prepend the exclusion to the caller's filter (the last flag wins).
  USER_FILTER=".*"
  for arg in "$@"; do
    case "$arg" in --benchmark_filter=*) USER_FILTER=${arg#--benchmark_filter=} ;; esac
  done
  set -- "$@" "--benchmark_filter=^(?!BM_GemmNN_(Fast)?MT/($OVER)(/|$))(?=.*(?:$USER_FILTER))"
fi

OUT="$BUILD_DIR/BENCH_kernels.json"
"$BUILD_DIR/bench/bench_kernels" --benchmark_out="$OUT" \
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

# --- ASan+UBSan gate over the SIMD equivalence tests ---
# The fast-tier kernels and the folded CRC-32 read with 16- and 32-byte
# vector loads near buffer tails; the equivalence suites must stay clean
# under address+undefined before a baseline recorded from them is accepted.
ASAN_DIR="${BUILD_DIR}-asan-ubsan"
cmake -B "$ASAN_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMFL_SANITIZE=address,undefined
cmake --build "$ASAN_DIR" -j --target test_tensor_simd test_tensor_kernels \
      test_util_crc32
"$ASAN_DIR/tests/test_tensor_simd"
"$ASAN_DIR/tests/test_tensor_kernels"
"$ASAN_DIR/tests/test_util_crc32"
echo "ASan+UBSan SIMD and CRC-32 equivalence gates passed"
echo "to update the tracked baseline: cp $OUT $REPO_ROOT/BENCH_kernels.json"
