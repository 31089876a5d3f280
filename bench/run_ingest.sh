#!/usr/bin/env sh
# Records the sharded-ingest throughput baseline BENCH_ingest.json at the
# repo root from a Release build, verifies the S=8 scaling acceptance gate,
# then re-runs the `ingest`-labeled test suite (sharded aggregator
# bit-identity, work-stealing pool, concurrent warm-pool LRU, engine and
# cluster sharding, the simulation's parallel training) under
# ThreadSanitizer and under ASan+UBSan.
#
#   bench/run_ingest.sh [build_dir] [--benchmark_* flags...]
#
# The build dir (default build-release/) is configured
# -DCMAKE_BUILD_TYPE=Release; the script verifies the binary's own
# build-type stamp in the recorded JSON (custom context `cmfl_build_type`)
# and fails loudly on a mismatch, and requires the `cmfl_simd` stamp so a
# baseline is never compared across SIMD tiers unknowingly.
#
# Scaling gate: BM_IngestBurst at S=8 must ingest >= 3x the uploads/sec of
# S=1 — but only on a host that can physically run 8 shard workers
# concurrently.  The binary stamps `cmfl_host_cpus`
# (std::thread::hardware_concurrency) into the JSON; below 8 CPUs the gate
# is skipped with a loud warning so a laptop/CI recording is never mistaken
# for a scaling validation.  Re-record on a >= 8-core host before citing
# the scaling numbers.
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

OUT="$REPO_ROOT/BENCH_ingest.json"
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

def uploads_per_s(shards):
    name = f"BM_IngestBurst/{shards}/real_time"
    for b in doc["benchmarks"]:
        if b["name"] == name and b.get("run_type") != "aggregate":
            return b["uploads_per_s"]
    raise SystemExit(f"ERROR: {name} missing from {sys.argv[1]}")

s1, s8 = uploads_per_s(1), uploads_per_s(8)
ratio = s8 / s1 if s1 > 0 else 0.0
print(f"ingest scaling: S=1 {s1:.0f} uploads/s, S=8 {s8:.0f} uploads/s "
      f"({ratio:.2f}x) on a {cpus}-CPU host")
if cpus >= 8:
    if ratio < 3.0:
        raise SystemExit(
            f"ERROR: S=8 ingest is only {ratio:.2f}x S=1 (gate: >= 3x on a "
            f"{cpus}-CPU host)")
    print("scaling gate PASSED (>= 3x)")
else:
    print("*" * 72)
    print(f"WARNING: host has only {cpus} CPUs — 8 shard workers cannot run")
    print("WARNING: concurrently, so the >= 3x S=8 scaling gate was SKIPPED.")
    print("WARNING: This baseline records single-core behavior only; re-run")
    print("WARNING: bench/run_ingest.sh on a >= 8-core host to validate the")
    print("WARNING: scaling claim before citing these numbers.")
    print("*" * 72)
EOF

# --- TSan gate over the ingest test suite ---
# The ingest pipeline is the most concurrent code in the tree (shard worker
# threads, the work-stealing pool, deferred warm-pool releases); the suite
# must be data-race-free before a baseline recorded from this tree is
# accepted.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMFL_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$(nproc)" --target \
      test_fl_shard test_sched_work_pool test_sched_population \
      test_sched_round_engine test_fl_simulation
(cd "$TSAN_DIR" && ctest -L ingest --output-on-failure)
echo "TSan ingest gates passed"

# --- ASan+UBSan gate over the same suite ---
ASAN_DIR="${BUILD_DIR}-asan-ubsan"
cmake -B "$ASAN_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMFL_SANITIZE=address,undefined
cmake --build "$ASAN_DIR" -j "$(nproc)" --target \
      test_fl_shard test_sched_work_pool test_sched_population \
      test_sched_round_engine test_fl_simulation
(cd "$ASAN_DIR" && ctest -L ingest --output-on-failure)
echo "ASan+UBSan ingest gates passed"
