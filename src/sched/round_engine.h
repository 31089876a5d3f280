// The device-population round runtime: Algorithm 1 re-hosted on a
// sched::Population, with production-scale round semantics.
//
// RoundEngine is the one in-process round loop.  It drives a (possibly
// 100k+) population of churning virtual devices through one of three round
// modes (sched::RoundMode); fl::FederatedSimulation is a front end that
// runs its fixed vector of always-on clients through the kSync path:
//
//   * kSync        — classic synchronous rounds over a sampled cohort (all
//                    unquarantined devices when sample_size is 0); the run
//                    ends early once every device is quarantined.
//   * kOverSelect  — invite more than needed, commit on the first K
//                    reporters (virtual-latency order, optional deadline),
//                    discard stragglers — the round shape production FL
//                    systems use to bound tail latency.
//   * kBufferedAsync — FedBuff-style: devices report whenever they finish;
//                    the server aggregates once `async_buffer` uploads are
//                    buffered, weighting each by (1+staleness)^-γ.
//
// CMFL under staleness: each device computes its relevance score against
// the (x, ū) pair it was actually sent — in async mode that is the ū of the
// model version it trained on, not the version current at arrival — and
// every aggregated round records the staleness distribution
// (IterationRecord::staleness_mean/max), so benches can show where
// relevance-based filtering degrades or holds as rounds desynchronize.
//
// Time is virtual (Population's seeded latency model), so every mode is
// bit-deterministic for a fixed seed; local training runs on a
// hardware-sized util::WorkStealingPool, one per run, when
// SimulationOptions::parallel is set (clients are materialized inside the
// jobs and parked back under their invitation sequence, so the warm pool
// evolves identically to the serial walk — DESIGN.md §17), and every round
// commits through fl::RoundCommitter, whose upload screening and
// aggregation fan out across SimulationOptions::sharding aggregator shards
// on the aggregator's own pool, bit-identical at any shard count.  Runs
// checkpoint and resume bit-identically through fl::TrainerCheckpoint (the
// committer's block with the per-shard ingest counters, the population's
// and the codec::CodecPlane's state maps, and the scheduler block),
// including the in-flight report queue of a buffered-async run.  See
// DESIGN.md §11, §17 and §18.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "codec/codec.h"
#include "core/filter.h"
#include "fl/simulation.h"
#include "sched/population.h"
#include "sched/schedule.h"

namespace cmfl::sched {

/// Scheduling outcomes beyond what SimulationResult already records.
struct ScheduleReport {
  std::uint64_t invited = 0;   // invitations issued (incl. wasted ones)
  std::uint64_t reported = 0;  // reports that reached the server in time
  std::uint64_t unavailable_invited = 0;  // invited while offline (kUniform)
  std::uint64_t mid_round_dropouts = 0;   // trained but never reported
  std::uint64_t discarded_stragglers = 0; // reported after commit/deadline
  std::uint64_t stale_discarded = 0;      // async: beyond max_staleness
  // Lazy-materialization accounting (process lifetime, not checkpointed).
  std::uint64_t materializations = 0;
  std::size_t peak_resident_clients = 0;
  /// Warm-pool evictions — the measured half of memory ∝ cohort (process
  /// lifetime, not checkpointed).
  std::uint64_t evictions = 0;
  /// Work-stealing pool steal events — timing-dependent, reported for
  /// observability, never checkpointed (DESIGN.md §17).
  std::uint64_t steals = 0;
};

struct EngineResult {
  fl::SimulationResult sim;
  ScheduleReport sched;
};

class RoundEngine {
 public:
  /// `population` must outlive the engine and have no acquired clients.
  /// The filter decides uploads; the evaluator runs the server-side test
  /// pass.  Updates cross the virtual wire through the configured codec
  /// (options.codec): a codec::CodecPlane makes a device's codec on its
  /// first upload, every encode/decode runs on the engine thread (bytes
  /// and codec streams are therefore independent of the thread count), and
  /// the plane's sparse state is checkpointed so resume stays bit-identical
  /// in all three round modes.
  ///
  /// Honoured SimulationOptions fields: local_epochs, batch_size,
  /// learning_rate, max_iterations (rounds in sync/over-select mode,
  /// aggregations in async mode), target_accuracy, eval_every, min_uploads
  /// (sync/over-select), estimator_ema, parallel, codec, aggregation /
  /// robust_aggregation / validation, seed, checkpoint_every /
  /// checkpoint_path, and `schedule`.  `participation` is ignored (the
  /// cohort size is schedule.sample_size; FederatedSimulation converts C
  /// into it), and capture_client_params is rejected (FederatedSimulation
  /// reads its own clients after the run).
  RoundEngine(Population& population,
              std::unique_ptr<core::UpdateFilter> filter,
              fl::GlobalEvaluator evaluator,
              const fl::SimulationOptions& options);

  /// Initializes the global model from device 0's freshly materialized
  /// parameters (all devices then synchronize on their first broadcast).
  EngineResult run();

  /// Continues a checkpointed engine run (same population spec, factory
  /// and options).  Bit-identical to the uninterrupted run, including a
  /// buffered-async run's in-flight reports.  Throws std::invalid_argument,
  /// before the population changes, when the checkpoint does not fit: a
  /// dimension, client or shard count mismatch, a non-engine checkpoint,
  /// state for a device outside the population, or an in-flight queue that
  /// is not a heap of distinct devices' reports of a known kind, trained on
  /// a version the checkpoint reached, at finite arrival times, whose
  /// uploads hold dim floats.
  EngineResult resume(const fl::TrainerCheckpoint& checkpoint);

  std::size_t param_count() const noexcept { return dim_; }

 private:
  struct Ctx;      // per-run mutable state (round_engine.cpp)
  struct Trained;  // one device's training outcome (round_engine.cpp)

  EngineResult run_internal(const fl::TrainerCheckpoint* resume_from);
  void run_sync_rounds(Ctx& ctx);
  void run_buffered_async(Ctx& ctx);
  /// Materializes, trains and releases `devices` (already invited;
  /// `seqs[i]` is device i's invitation sequence number, `round` indexes
  /// the availability/dropout streams, `filter_iteration` the threshold
  /// schedule).  Parallel across devices when options_.parallel.
  std::vector<Trained> train_cohort(Ctx& ctx,
                                    const std::vector<std::uint64_t>& devices,
                                    const std::vector<std::uint64_t>& seqs,
                                    std::uint64_t round,
                                    std::size_t filter_iteration, float lr);
  fl::TrainerCheckpoint snapshot(Ctx& ctx, std::uint64_t iteration);
  /// Encodes one upload through the device's codec, replaces `update` with
  /// the decoded reconstruction, and returns the encoded wire size.  Dense
  /// fast path: leaves the update untouched and prices it at
  /// upload_wire_bytes_.
  std::uint64_t encode_upload(Ctx& ctx, std::uint64_t device,
                              std::vector<float>& update);

  Population& population_;
  std::unique_ptr<core::UpdateFilter> filter_;
  fl::GlobalEvaluator evaluator_;
  fl::SimulationOptions options_;
  std::size_t dim_ = 0;
  std::uint64_t upload_wire_bytes_ = 0;  // exact bytes of one dense upload
};

}  // namespace cmfl::sched
