// The benchmark's three workloads, one per bit-deterministic round runtime,
// and the correctness gate every operation passes before it is reported.
//
// An *operation* is one seeded training run to the workload's target
// accuracy.  Each workload is a closed loop: a round starts only after the
// previous round committed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fl/simulation.h"
#include "ledger.h"
#include "sched/round_engine.h"
#include "trace.h"

namespace perfbench {

enum class Runtime { kSimulation, kEngine, kCluster };

struct WorkloadConfig {
  std::string name;
  Runtime runtime = Runtime::kSimulation;
  double target = 0.0;       ///< test accuracy that ends an operation
  std::size_t seeds = 0;     ///< distinct operation seeds per benchmark run
  std::string codec;         ///< upload codec spec
  std::size_t shards = 0;    ///< sharded-ingest shard threads (engine)
  std::size_t workers = 0;   ///< worker threads (cluster)
  bool parallel = false;     ///< runtime's own training pool
  std::size_t lanes = 1;     ///< operations run side by side, one thread each
};

/// The workload named `name` (as in BENCHMARK.json), or nullptr.
const WorkloadConfig* find_workload(const std::string& name);

/// Most threads the workload can have runnable at once, given the kernel
/// pool's configured size (1 = no pool).  The runtimes' own pools size
/// themselves to std::thread::hardware_concurrency().
std::size_t runnable_threads(const WorkloadConfig& w, std::size_t kernel_threads);

/// Seed of operation `index` of the benchmark run seeded `run_seed`.
std::uint64_t op_seed(std::uint64_t run_seed, std::uint64_t index);

struct OpResult {
  double run_s = 0.0;     ///< wall time of run()
  double target_s = -1.0; ///< run() to the first evaluation at the target
  std::size_t dim = 0;
  std::size_t clients = 0;  ///< clients, devices or workers
  std::vector<cmfl::fl::IterationRecord> history;
  std::vector<float> final_params;
  /// Uplink bytes the runtime counted (encoded payloads, or the cluster's
  /// ByteMeter) and, on the cluster, its downlink ByteMeter.
  std::uint64_t up_bytes = 0;
  std::uint64_t down_bytes = 0;
  /// Engine: Σ uploads_per_client, committed uploads plus stragglers'
  /// uploads, which crossed the uplink but were discarded.
  std::uint64_t uplink_uploads = 0;
  std::uint64_t upload_frames = 0;       // cluster
  std::uint64_t elimination_frames = 0;  // cluster
  cmfl::sched::ScheduleReport sched;     // engine
};

/// A constructed operation: the constructor does all set-up (dataset
/// synthesis, partitioning, client or population construction, runtime
/// construction); run() trains to the target once.
class PreparedOp {
 public:
  virtual ~PreparedOp() = default;
  virtual OpResult run() = 0;
};

/// `tracer` (may be null) receives spans from decorated clients, filter,
/// evaluator and client factory; it must outlive the operation.
std::unique_ptr<PreparedOp> prepare_op(const WorkloadConfig& w, std::uint64_t seed,
                                       Tracer* tracer);

/// Encoded sizes the byte reconciliation prices uploads and broadcasts
/// at, measured with the library's own encoders for a `dim`-sized model.
struct WireSizes {
  std::uint64_t codec_upload = 0;       ///< encoded payload of one upload
  std::uint64_t upload_frame = 0;       ///< sealed dense UpdateUpload frame
  std::uint64_t elimination_frame = 0;  ///< sealed Elimination frame
  std::uint64_t broadcast_frame = 0;    ///< sealed Broadcast frame (x and ū)
};
WireSizes wire_sizes(const std::string& codec, std::size_t dim);

/// What an operation reached, once it passed the correctness gate.
struct Checked {
  ToTarget to_target;
  std::uint64_t down_bytes = 0;  ///< broadcast bytes to the target
};

/// The correctness gate: the run reached its target and stopped there,
/// final parameters are finite, no round uploads more than it has
/// participants, and the uplink and downlink byte counts reconcile with the
/// workload's formula.  Throws std::runtime_error naming the first failed
/// check.
Checked check_op(const WorkloadConfig& w, const OpResult& r, const WireSizes& sizes);

}  // namespace perfbench
