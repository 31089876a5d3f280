// The server's round close (paper Algorithm 1, lines 7–9), written once for
// every round runtime.
//
// The three round loops — sched::RoundEngine (which FederatedSimulation
// runs on), net::FlCluster and the replicated master's state machine — all
// close a synchronous round through RoundCommitter::close_round: tally the
// uploads S_t and the eliminated clients' answers in client-id order, add
// them to Φ (Eq. 4) in rounds and bytes, then screen the received updates
// (fl::UpdateValidator), aggregate the accepted ones into ū_t, apply
// x_t = x_{t-1} + ū_t, record ΔUpdate (Eq. 8) and feed ū_t to the estimator
// that the next round's relevance check (Eq. 9) compares against; then
// evaluate, apply the finite-loss target-stop rule and append the round to
// the history.  RoundCommitter owns that committed server state.  Screening
// scalars and aggregation always run through fl::ShardedAggregator — the
// only aggregation path — on max(1, sharding.shards) shards, bit-identical
// at any shard count.  The engine's buffered-async mode counts its answers
// as they arrive and calls commit directly.
//
// Each round loop keeps what is its own: cohort choice, min_uploads
// forcing (only the engine holds an eliminated update), its wire protocol
// and open-round bookkeeping (net::RoundLedger on both cluster masters).
// Codecs are codec::CodecPlane's, and every runtime checkpoints its clients'
// and codecs' words as the TrainerCheckpoint's two state maps.  Training and
// the filter call are the shared client step, fl::local_update
// (fl/client.h).  See DESIGN.md §18 and §19.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/estimator.h"
#include "fl/robust_agg.h"
#include "fl/shard.h"
#include "fl/simulation.h"

namespace cmfl::fl {

struct TrainerCheckpoint;  // fl/checkpoint.h

/// The updates a runtime received in one round, in the order the server
/// screens them.  The runtime keeps the decoded updates alive until
/// RoundCommitter::commit returns.
struct RoundUploads {
  std::vector<std::size_t> clients;              ///< uploader of each
  std::vector<std::span<const float>> updates;   ///< decoded updates
  /// |P_k| of each uploader: kSampleWeighted's weights before
  /// normalisation.
  std::vector<std::uint64_t> samples;
  /// Wire bytes of each upload, counted by the shard that screens it.
  std::vector<std::uint64_t> wire_bytes;
  /// Buffered-async rounds only, one entry per update: model versions it
  /// is behind.  Non-empty turns the two mean rules into a (1 + s)^-γ
  /// weighted mean (γ = schedule.staleness_exponent) and fills the
  /// record's staleness statistics.
  std::vector<std::uint64_t> staleness;

  void add(std::size_t client, std::span<const float> update,
           std::uint64_t local_samples, std::uint64_t bytes) {
    clients.push_back(client);
    updates.push_back(update);
    samples.push_back(local_samples);
    wire_bytes.push_back(bytes);
  }
};

/// One client's answer to a synchronous round, as the server tallies it.
struct RoundReport {
  std::size_t client = 0;
  bool upload = false;  ///< in S_t; false: eliminated by the filter
  double score = 0.0;
  double train_loss = 0.0;
  std::uint64_t samples = 0;  ///< |P_k|
  std::span<const float> update{};  ///< uploads: alive until close_round
  /// Bytes it adds to Φ: the encoded upload, or a sealed reply frame.
  std::uint64_t wire_bytes = 0;
};

/// What closing a round decided.
struct RoundOutcome {
  bool evaluated = false;  ///< the round ran a test pass
  bool stop = false;       ///< target accuracy reached at a finite loss
};

class RoundCommitter {
 public:
  /// `num_clients` sizes the per-client counters and the validator;
  /// `initial_global` is x_0.
  RoundCommitter(const SimulationOptions& options, std::size_t num_clients,
                 std::vector<float> initial_global);

  std::span<const float> global() const noexcept { return global_; }
  /// ū, the estimate clients check their relevance against.
  std::span<const float> estimate() const noexcept {
    return estimator_.estimate();
  }
  bool quarantined(std::size_t client) const {
    return validator_.quarantined(client);
  }
  /// True once the validator has quarantined every client.
  bool all_quarantined() const {
    return validator_.report().quarantined_count() ==
           result_.uploads_per_client.size();
  }
  ShardedAggregator& aggregator() noexcept { return *aggregator_; }

  /// Closes synchronous round `t` over `reports`, in the order the server
  /// screens them (client-id order): counts each upload or elimination and
  /// its wire bytes, fills the record's participants, uploads and means, and
  /// commits the uploads.
  RoundOutcome close_round(std::size_t t, std::span<const RoundReport> reports,
                           const GlobalEvaluator& evaluate);

  /// Counting at arrival, for buffered-async answers and an over-selected
  /// round's straggler uploads.
  void record_elimination(std::size_t client);
  void record_upload(std::size_t client, std::uint64_t wire_bytes);

  /// Commits round `rec.iteration`, whose counts and means the caller
  /// filled: adds Φ, screens and aggregates `uploads`, applies ū, evaluates
  /// every eval_every rounds and on the last one, and appends `rec` to the
  /// history.
  RoundOutcome commit(IterationRecord rec, const RoundUploads& uploads,
                      const GlobalEvaluator& evaluate);

  /// True when round `t` must write a checkpoint: every checkpoint_every
  /// rounds, on the last round, and when the run stops at its target.
  bool checkpoint_due(std::size_t t, bool stop) const;

  /// The TrainerCheckpoint fields every runtime shares (model, estimator,
  /// ΔUpdate reference, counters, history, validation, shard counters);
  /// the runtime adds its client and codec state maps and its own blocks.
  TrainerCheckpoint checkpoint(std::uint64_t iteration) const;
  /// Restores what checkpoint() wrote.  Throws std::invalid_argument when
  /// the checkpoint's dimension, client count or shard count does not fit.
  void restore(const TrainerCheckpoint& ck);

  /// The run summary: history, counters, total_rounds, final_params,
  /// validation and final_accuracy.  Leaves the committer spent.
  SimulationResult finish();

 private:
  void screen_and_apply(IterationRecord& rec, const RoundUploads& uploads);

  SimulationOptions options_;
  std::vector<float> global_;
  core::GlobalUpdateEstimator estimator_;
  UpdateValidator validator_;
  std::vector<float> prev_update_;  // ū_{t-1}: empty until the first commit
  std::size_t cumulative_rounds_ = 0;  // Φ
  SimulationResult result_;  // history, per-client counters, uplink bytes
  // unique_ptr: the aggregator is immovable, the committer must move (the
  // replicated master move-assigns its state machine on a restart).
  std::unique_ptr<ShardedAggregator> aggregator_;
};

}  // namespace cmfl::fl
