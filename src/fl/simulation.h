// The synchronous federated training loop (paper Algorithm 1).
//
// Each iteration: broadcast (x_{t-1}, ū_{t-1}) → every client trains locally
// → clients self-filter their updates via an UpdateFilter → the server
// validates the received updates (fl/robust_agg.h), aggregates the accepted
// ones into ū_t, and applies it.  The simulation records everything the
// paper's figures need: per-iteration upload counts (communication rounds,
// Eq. 4), filter scores (Fig. 2), ΔUpdate (Fig. 3), per-client elimination
// counts (Fig. 6), and periodic test accuracy (Figs. 4, 5, 7).
//
// FederatedSimulation is a front end over sched::RoundEngine's kSync path,
// run on an always-available sched::Population of the clients it owns
// (DESIGN.md §11).
//
// Runs can checkpoint their full state every `checkpoint_every` iterations
// (fl/checkpoint.h) and later resume() bit-identically — the resumed
// trajectory matches the uninterrupted one exactly.
#pragma once

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "codec/codec.h"
#include "core/filter.h"
#include "core/threshold.h"
#include "fl/client.h"
#include "fl/robust_agg.h"
#include "fl/shard.h"
#include "nn/model.h"
#include "sched/schedule.h"

namespace cmfl::sched {
class Population;   // sched/population.h
class RoundEngine;  // sched/round_engine.h
}  // namespace cmfl::sched

namespace cmfl::fl {

struct TrainerCheckpoint;  // fl/checkpoint.h

struct SimulationOptions {
  int local_epochs = 4;              // E in the paper
  std::size_t batch_size = 2;        // B in the paper
  core::Schedule learning_rate = core::Schedule::inv_sqrt(0.05);
  std::size_t max_iterations = 200;
  /// Stop early once test accuracy reaches this value (<= 0 disables).
  /// Rounds whose evaluation produced a non-finite loss never trigger the
  /// early stop: a diverged model can score a spuriously "good" accuracy on
  /// a small test set while being numerically destroyed.
  double target_accuracy = 0.0;
  /// Evaluate the global model every `eval_every` iterations (and at the
  /// final iteration).
  std::size_t eval_every = 5;
  /// If every client filters itself out, force the `min_uploads` clients
  /// with the highest scores to upload anyway (tallied in client-id order;
  /// in-process runs only, the clusters ignore it).  The default 0 is the
  /// paper's semantics: an empty S_t leaves the model unchanged that round
  /// (this is exactly the Gaia stagnation failure mode §III-B describes).
  std::size_t min_uploads = 0;
  /// EMA decay for the global-update estimator (0 = the paper's
  /// previous-update estimate).
  double estimator_ema = 0.0;
  /// Train clients in parallel (deterministic either way).
  bool parallel = true;
  /// Capture every client's local parameters (get_params) at the end of the
  /// run, for the normalized-model-divergence analysis (Fig. 1).
  /// FederatedSimulation only; sched::RoundEngine rejects it.
  bool capture_client_params = false;
  /// Update codec applied to *uploaded* updates (see codec/codec.h for the
  /// spec grammar: "dense", "sign[:<chunk>]", "quant:<bits>",
  /// "topk:<k-or-fraction>", "codebook:<k>[,<refresh>]",
  /// "subsample:<keep>", "structured:<density>").  Codecs compose with any
  /// filter — the orthogonality the paper claims in §I.
  codec::CodecOptions codec;
  /// Server aggregation rule (fl/robust_agg.h).
  Aggregation aggregation = Aggregation::kUniformMean;
  /// Knobs of the robust aggregation rules (trim fraction, clip radius).
  RobustAggOptions robust_aggregation;
  /// Server-side admission rules for received updates.  Defaults reject
  /// non-finite updates and quarantine repeat offenders — non-finite values
  /// must never reach the model.
  ValidationPolicy validation;
  /// FedAvg's C: the fraction of clients sampled to participate each round,
  /// in (0, 1] (1.0 = full participation, the paper's synchronous scheme).
  /// FederatedSimulation draws a cohort of max(1, ⌊C·n⌋) through the
  /// engine's schedule.sample_size; non-participants neither train nor count
  /// as communication.  sched::RoundEngine itself ignores it.
  double participation = 1.0;
  /// Scheduling policy (src/sched), read by sched::RoundEngine.
  /// FederatedSimulation requires mode == kSync and honours sample_size, an
  /// absolute cohort size that overrides `participation` when positive
  /// (≥ the client count is full participation).
  sched::ScheduleOptions schedule;
  /// Sharded parameter-server aggregation (fl/shard.h).  Every runtime
  /// screens and aggregates uploads through fl::RoundCommitter on
  /// max(1, shards) range-partitioned shards; shard 0 runs on the
  /// coordinating thread, so S shards add S − 1 threads.  Trajectories are
  /// bit-identical at any shard count.  The replicated cluster accepts only
  /// shards <= 1 (DESIGN.md §17).
  ShardOptions sharding;
  /// Seed for server-side randomness (the engine's cohort sampler).
  std::uint64_t seed = 1234;
  /// Write a crash-consistent checkpoint to `checkpoint_path` every
  /// `checkpoint_every` completed iterations (0 disables).  Each write
  /// atomically replaces the previous checkpoint.
  std::size_t checkpoint_every = 0;
  std::string checkpoint_path;
};

struct IterationRecord {
  std::size_t iteration = 0;       // t, 1-based
  std::size_t uploads = 0;         // r_t = |S_t|, updates *received*
  /// Clients whose answer was counted this round: the sampled participants
  /// in the simulation, the workers whose reply arrived before the round
  /// committed in the (possibly faulty, quorum-gated) cluster.
  std::size_t participants = 0;
  /// Received updates the server's validator refused to aggregate this
  /// round (non-finite, norm-exploded, or from a quarantined sender).
  /// Counted within `uploads`: a rejected update still crossed the wire.
  std::size_t rejected = 0;
  std::size_t cumulative_rounds = 0;  // Φ up to and including t
  /// Cumulative uplink bytes of all uploaded (possibly compressed) updates
  /// up to and including t — the byte-valued Φ that makes compression ×
  /// CMFL × scheduling comparisons apples-to-apples (fl::saving_bytes).
  /// On a cluster: the tallied reply frames, eliminations included.
  std::uint64_t cumulative_upload_bytes = 0;
  double mean_score = 0.0;         // mean filter score across clients
  double mean_train_loss = 0.0;
  double delta_update = 0.0;       // Eq. 8 vs the previous global update
  /// Staleness distribution of the updates aggregated this round (model
  /// versions the server advanced between a client's broadcast and its
  /// aggregation).  Always 0 in synchronous modes; populated by
  /// sched::RoundEngine's buffered-async rounds.
  double staleness_mean = 0.0;
  std::size_t staleness_max = 0;
  /// Test metrics; NaN when this iteration was not evaluated.
  double accuracy = std::numeric_limits<double>::quiet_NaN();
  double loss = std::numeric_limits<double>::quiet_NaN();

  /// True when this iteration ran a test pass.  Both metrics are checked:
  /// a diverged model can legitimately produce a NaN loss alongside a
  /// finite accuracy (or vice versa), and such a round *was* evaluated.
  bool evaluated() const noexcept {
    return !std::isnan(accuracy) || !std::isnan(loss);
  }
};

struct SimulationResult {
  std::vector<IterationRecord> history;
  std::vector<std::size_t> eliminations_per_client;
  /// Per-client count of updates that crossed the uplink (the complement of
  /// eliminations_per_client) — what Fig.-6-style outlier analysis needs
  /// from a saved trace.
  std::vector<std::size_t> uploads_per_client;
  std::vector<float> final_params;
  /// Per-client local parameters after the final local training pass; empty
  /// unless SimulationOptions::capture_client_params was set.
  std::vector<std::vector<float>> client_params;
  /// Exact uplink bytes of all uploaded (possibly compressed) updates.
  std::uint64_t uploaded_bytes = 0;
  double final_accuracy = 0.0;
  std::size_t total_rounds = 0;  // Φ over the whole run
  /// Server-side validation outcome: reject counters and which clients
  /// ended the run quarantined.
  ValidationReport validation;

  /// Accumulated communication rounds when test accuracy first reached `a`
  /// (Eq. 4 evaluated at the first eval point with accuracy >= a);
  /// std::nullopt if never reached.
  std::optional<std::size_t> rounds_to_accuracy(double a) const;

  /// Cumulative uplink bytes when test accuracy first reached `a` (the
  /// byte-valued analogue of rounds_to_accuracy); std::nullopt if never
  /// reached.
  std::optional<std::uint64_t> bytes_to_accuracy(double a) const;
};

/// Evaluates the global parameter vector on the server-side test set.
using GlobalEvaluator = std::function<nn::EvalResult(std::span<const float>)>;

class FederatedSimulation {
 public:
  /// All clients must share one parameter dimensionality.  `filter` decides
  /// uploads; `evaluator` runs the server-side test pass.
  FederatedSimulation(std::vector<std::unique_ptr<FlClient>> clients,
                      std::unique_ptr<core::UpdateFilter> filter,
                      GlobalEvaluator evaluator,
                      const SimulationOptions& options);
  ~FederatedSimulation();

  /// Initializes the global model from client 0's current parameters (all
  /// clients are then synchronized on the first broadcast).
  SimulationResult run();

  /// Continues a checkpointed run from iteration ck.iteration + 1.  The
  /// simulation must be constructed with the same workload spec and options
  /// as the original run; the checkpoint supplies every piece of mutable
  /// state (model, estimator, RNG streams, counters, history), so the
  /// resumed trajectory is bit-identical to the uninterrupted one.  Throws
  /// std::invalid_argument when the checkpoint does not fit this simulation
  /// (dimension or client-count mismatch, or not an engine checkpoint).
  SimulationResult resume(const TrainerCheckpoint& checkpoint);

  std::size_t client_count() const noexcept { return clients_.size(); }
  std::size_t param_count() const noexcept { return dim_; }

 private:
  /// Adds the clients' local models when capture_client_params is set.
  SimulationResult finish(SimulationResult result);

  std::vector<std::unique_ptr<FlClient>> clients_;
  bool capture_client_params_ = false;
  std::size_t dim_ = 0;
  // The population hands the engine non-owning handles to clients_.
  std::unique_ptr<sched::Population> population_;
  std::unique_ptr<sched::RoundEngine> engine_;
};

}  // namespace cmfl::fl
