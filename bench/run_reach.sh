#!/usr/bin/env sh
# Reachability check over the library: lists every global function that a
# src/ archive defines and that no bench, example or perfbench executable
# keeps, and fails if one of them is outside the allowlist below.
#
#   bench/run_reach.sh [build_dir]
#
# Builds the whole tree into build_dir (default build-reach/) and perfbench/
# into build_dir/perfbench, both as Debug at -O0 with one section per
# function, linked with --gc-sections: an executable then keeps exactly the
# functions its call graph reaches.  The build type must be Debug, because
# every other type compiles cmfl_tensor at -O3, and inlining hides callers.
# The check reads the `T` symbols of the src/ archives with nm and compares
# them with the symbols each executable keeps.  It cannot see inline or
# template code (those are weak symbols); grep headers for those.
#
# Not a ctest: it needs its own build, a few minutes on four cores.
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD_DIR="${1:-$REPO_ROOT/build-reach}"
PERF_DIR="$BUILD_DIR/perfbench"
WORK="$BUILD_DIR/reach"

# Functions that stay although only tests reach them.  One extended regular
# expression per line, matched against the whole qualified name (demangled,
# parameter list removed).  They are
#   - contract entry points: the three resume()s, load_checkpoint_file and
#     the trace readers;
#   - oracles that tests judge production code with: bitwise_equal (resumed
#     records), the naive GEMM loops, transposed (matmul_tn/nt), checked_at,
#     get_grads and out_dim (gradient checks), the partition checks, the
#     span screen_round (serial screening), train_accuracy (local solver)
#     and resident (warm-pool eviction);
#   - kernels::tier(), with which tests restore the dispatch tier.
ALLOWLIST='
cmfl::fl::FederatedSimulation::resume
cmfl::sched::RoundEngine::resume
cmfl::net::FlCluster::resume
cmfl::fl::load_checkpoint_file
cmfl::fl::bitwise_equal
cmfl::fl::read_trace_csv(_file)?
cmfl::tensor::kernels::gemm_[a-z_]*_ref
cmfl::tensor::Matrix::transposed
cmfl::tensor::Matrix::checked_at
cmfl::nn::FeedForward::get_grads
cmfl::nn::LstmLm::get_grads
cmfl::nn::Sequential::out_dim
cmfl::data::validate_partition
cmfl::data::Partition::total_samples
cmfl::fl::UpdateValidator::screen_round
cmfl::mtl::TaskSolver::train_accuracy
cmfl::sched::Population::resident
cmfl::tensor::kernels::tier
'

FLAGS="-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
-DCMAKE_CXX_FLAGS=-ffunction-sections -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"

mkdir -p "$WORK"
LOG="$WORK/build.log"
# Configures and builds one tree; the compiler output goes to $LOG.
build() {
  # shellcheck disable=SC2086  # FLAGS is a deliberate word list
  if ! { cmake -B "$1" -S "$2" $FLAGS && cmake --build "$1" -j "$(nproc)"; } >>"$LOG" 2>&1; then
    tail -n 40 "$LOG" >&2
    echo "FAIL: build of $2 failed (full log: $LOG)" >&2
    exit 2
  fi
}
: >"$LOG"
build "$BUILD_DIR" "$REPO_ROOT"
build "$PERF_DIR" "$REPO_ROOT/perfbench"

# Prints the sorted defined symbols of every ELF executable given.
kept_by() {
  for exe in "$@"; do
    [ -f "$exe" ] && [ -x "$exe" ] || continue
    nm --defined-only "$exe" 2>/dev/null | awk '{ print $NF }'
  done | sort -u
}

find "$BUILD_DIR/src" -name 'libcmfl_*.a' -exec nm --defined-only {} + |
  awk '$2 == "T" { print $3 }' | sort -u >"$WORK/library"
# shellcheck disable=SC2046  # one argument per executable path
kept_by $(find "$BUILD_DIR/bench" "$BUILD_DIR/examples" -maxdepth 1 -type f) \
        "$PERF_DIR/perfbench" "$PERF_DIR/perfbench_tests" >"$WORK/programs"
# shellcheck disable=SC2046
kept_by $(find "$BUILD_DIR/tests" -maxdepth 1 -type f -name 'test_*') >"$WORK/tests"

comm -23 "$WORK/library" "$WORK/programs" >"$WORK/unreached_by_programs"
comm -12 "$WORK/unreached_by_programs" "$WORK/tests" >"$WORK/test_only"
comm -23 "$WORK/unreached_by_programs" "$WORK/tests" >"$WORK/never"

# Demangles and drops ABI tags and the parameter list (an operator() keeps
# its name).
qualified() {
  c++filt |
    sed 's/\[abi:[^]]*\]//g; s/operator()/operator@@/; s/(.*$//; s/operator@@/operator()/'
}

printf '%s\n' "$ALLOWLIST" | sed '/^$/d' >"$WORK/allowlist"
report() {
  title=$1
  file=$2
  echo "== $title: $(wc -l <"$file") =="
  qualified <"$file" | sort | uniq -c | while read -r count name; do
    mark=""
    if ! printf '%s\n' "$name" | grep -Eqx -f "$WORK/allowlist"; then
      mark="   <- not allowlisted"
    fi
    if [ "$count" -gt 1 ]; then
      echo "  $name ($count overloads)$mark"
    else
      echo "  $name$mark"
    fi
  done
}
report "reached by no executable" "$WORK/never"
report "reached only by tests" "$WORK/test_only"

echo "library functions: $(wc -l <"$WORK/library")," \
     "reached by no executable: $(wc -l <"$WORK/never")," \
     "reached only by tests: $(wc -l <"$WORK/test_only")"
if qualified <"$WORK/unreached_by_programs" | grep -Evxq -f "$WORK/allowlist"; then
  echo "FAIL: functions outside the allowlist are reached by no bench, example or perfbench executable" >&2
  exit 1
fi
echo "every function outside the allowlist is reached by a bench, example or perfbench executable"
