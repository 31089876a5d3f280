#!/usr/bin/env sh
# Records the sharded-ingest throughput benchmark into
# <build_dir>/BENCH_ingest.json from a Release build, verifies the S=8
# scaling acceptance gate, then re-runs the `ingest`-labeled test suite
# (sharded aggregator bit-identity, the work-stealing pool and the kernel
# layer's dispatch onto it, concurrent warm-pool LRU, engine and cluster
# sharding, the simulation's parallel training) under ThreadSanitizer and
# under ASan+UBSan.  The tracked baseline BENCH_ingest.json at the repo root
# is never rewritten: the script ends by printing the `cp` that would update
# it.
#
#   bench/run_ingest.sh [build_dir] [--benchmark_* flags...]
#
# The build dir (default build-release/) is configured
# -DCMAKE_BUILD_TYPE=Release; the script verifies the binary's own
# build-type stamp in the recorded JSON (custom context `cmfl_build_type`)
# and fails loudly on a mismatch, and requires the `cmfl_simd` stamp so a
# baseline is never compared across SIMD tiers unknowingly.
#
# Shard pinning: the pipeline rows (BM_IngestBurst/S, BM_CommitRound/S) run
# S shard threads.  A row with more shards than the host has CPUs (`nproc`)
# would time the scheduler, not the pipeline, so the script skips it and
# says so loudly, as run_kernels.sh does for its MT rows.
#
# Scaling gate: BM_IngestBurst at S=8 must ingest >= 3x the uploads/sec of
# S=1 — but only on a host that can physically run 8 shard threads
# concurrently.  The binary stamps `cmfl_host_cpus`
# (std::thread::hardware_concurrency) into the JSON; below 8 CPUs the gate
# is skipped with a loud warning (and the S=8 row is not recorded) so a
# laptop/CI recording is never mistaken for a scaling validation.
# Re-record on a >= 8-core host before citing the scaling numbers.
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
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_ingest

# --- Oversubscription guard: skip pipeline rows with more shards than CPUs ---
SHARD_COUNTS="1 2 4 8"  # the ->Arg(shards) list of the pipeline rows
NPROC=$(nproc)
OVER=""
for s in $SHARD_COUNTS; do
  if [ "$s" -gt "$NPROC" ]; then OVER="${OVER:+$OVER|}$s"; fi
done
if [ -n "$OVER" ]; then
  echo "##################################################################" >&2
  echo "## SKIPPING pipeline rows with $(echo "$OVER" | tr '|' ',') shards: this host has" >&2
  echo "## nproc=$NPROC CPUs, and an oversubscribed row is not an ingest rate." >&2
  echo "##################################################################" >&2
  # Prepend the exclusion to the caller's filter (the last flag wins).
  USER_FILTER=".*"
  for arg in "$@"; do
    case "$arg" in --benchmark_filter=*) USER_FILTER=${arg#--benchmark_filter=} ;; esac
  done
  set -- "$@" "--benchmark_filter=^(?!BM_(IngestBurst|CommitRound)/($OVER)(/|$))(?=.*(?:$USER_FILTER))"
fi

OUT="$BUILD_DIR/BENCH_ingest.json"
"$BUILD_DIR/bench/bench_ingest" --benchmark_out="$OUT" \
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

# --- S=8 vs S=1 scaling gate (>= 8-core hosts only) ---
python3 - "$OUT" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
cpus = int(doc["context"].get("cmfl_host_cpus", "0"))

def uploads_per_s(row):
    name = f"{row}/real_time"
    for b in doc["benchmarks"]:
        if b["name"] == name and b.get("run_type") != "aggregate":
            return b["uploads_per_s"]
    raise SystemExit(f"ERROR: {name} missing from {sys.argv[1]}")

s1 = uploads_per_s("BM_IngestBurst/1")
inline = uploads_per_s("BM_ScalarInline")
print(f"S=1 ingest vs the inline scalar pass: {s1:.0f} vs {inline:.0f} "
      f"uploads/s ({s1 / inline:.3f}x)")
if cpus >= 8:
    s8 = uploads_per_s("BM_IngestBurst/8")
    ratio = s8 / s1 if s1 > 0 else 0.0
    print(f"ingest scaling: S=1 {s1:.0f} uploads/s, S=8 {s8:.0f} uploads/s "
          f"({ratio:.2f}x) on a {cpus}-CPU host")
    if ratio < 3.0:
        raise SystemExit(
            f"ERROR: S=8 ingest is only {ratio:.2f}x S=1 (gate: >= 3x on a "
            f"{cpus}-CPU host)")
    print("scaling gate PASSED (>= 3x)")
else:
    print("*" * 72)
    print(f"WARNING: host has only {cpus} CPUs — 8 shard workers cannot run")
    print("WARNING: concurrently, so the >= 3x S=8 scaling gate was SKIPPED.")
    print("WARNING: Re-run bench/run_ingest.sh on a >= 8-core host to")
    print("WARNING: validate the scaling claim before citing these numbers.")
    print("*" * 72)
EOF

# --- TSan gate over the ingest test suite ---
# The ingest pipeline is the most concurrent code in the tree (the shard
# passes and the cohort on work-stealing pools, inline runs on a busy pool,
# deferred warm-pool releases); the suite
# must be data-race-free before a baseline recorded from this tree is
# accepted.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMFL_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$(nproc)" --target \
      test_fl_shard test_util_work_pool test_sched_population \
      test_sched_round_engine test_fl_simulation
(cd "$TSAN_DIR" && ctest -L ingest --output-on-failure)
echo "TSan ingest gates passed"

# --- ASan+UBSan gate over the same suite ---
ASAN_DIR="${BUILD_DIR}-asan-ubsan"
cmake -B "$ASAN_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMFL_SANITIZE=address,undefined
cmake --build "$ASAN_DIR" -j "$(nproc)" --target \
      test_fl_shard test_util_work_pool test_sched_population \
      test_sched_round_engine test_fl_simulation
(cd "$ASAN_DIR" && ctest -L ingest --output-on-failure)
echo "ASan+UBSan ingest gates passed"
echo "to update the tracked baseline: cp $OUT $REPO_ROOT/BENCH_ingest.json"
