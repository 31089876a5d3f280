// Federated clients: a local model bound to a private data shard.
//
// Clients expose a minimal interface — install the global model, train E
// local epochs, read back the trained parameters.  fl::local_update (below)
// is the one client step of Algorithm 1 built on it: it forms the update
// (trained − global) and asks the upload filter about it, mirroring the
// algorithm's split between LocalUpdate and CheckRelevance.
// sched::RoundEngine (and through it FederatedSimulation) and the cluster
// workers call it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/filter.h"
#include "data/batcher.h"
#include "data/dataset.h"
#include "nn/feed_forward.h"
#include "nn/lstm_lm.h"
#include "util/rng.h"

namespace cmfl::fl {

class FlClient {
 public:
  virtual ~FlClient() = default;

  virtual std::size_t param_count() = 0;
  virtual std::size_t local_samples() const = 0;

  /// Installs the global model x_{t-1}.
  virtual void set_params(std::span<const float> params) = 0;

  /// Reads the current (post-training) local parameters.
  virtual void get_params(std::span<float> out) = 0;

  /// Runs `epochs` passes of mini-batch SGD (batch size `batch_size`,
  /// learning rate `lr`) over the client's shard.  Returns the mean
  /// training loss of the final epoch.
  virtual double train_local(int epochs, std::size_t batch_size,
                             float lr) = 0;

  /// Total optimization steps this client instance has ever run (SGD
  /// batches for the learning clients, gradient steps for the convex one).
  /// A process-lifetime observation, deliberately excluded from
  /// mutable_state(): it exists so tests can assert that unsampled clients
  /// did no local work (the lazy-participation contract of the round
  /// engine, which the simulation runs on), not to survive checkpoints.
  virtual std::uint64_t lifetime_steps() const { return 0; }

  /// Mutable stochastic state (batch-shuffle / noise RNG streams) as opaque
  /// u64 words.  Model parameters are deliberately excluded: the broadcast
  /// overwrites them every round, so the RNG streams are the only per-client
  /// state a crash-consistent checkpoint must carry for a resumed run to
  /// retrace the uninterrupted trajectory bit-identically.
  virtual std::vector<std::uint64_t> mutable_state() const { return {}; }

  /// Restores a state captured by mutable_state(); throws
  /// std::invalid_argument on a malformed blob.
  virtual void restore_mutable_state(std::span<const std::uint64_t> state);
};

/// What one client step produced besides its update.
struct LocalStep {
  core::FilterDecision decision;
  double train_loss = 0.0;  ///< mean training loss of the final epoch
};

/// One client step of Algorithm 1 (lines 10–16), in this order: installs
/// x_{t-1} = ctx.global_model, trains `epochs` local epochs, sizes `update`
/// like x_{t-1} and reads the trained parameters into it, subtracts x_{t-1}
/// element by element (u = x_local − x_{t-1}) and asks `filter` whether u
/// is relevant (Eq. 9).  The caller builds `ctx`, so how ū is packed for
/// the relevance check stays its choice.
LocalStep local_update(FlClient& client, const core::UpdateFilter& filter,
                       const core::FilterContext& ctx, int epochs,
                       std::size_t batch_size, float lr,
                       std::vector<float>& update);

/// FeedForward model over a DenseDataset shard (CNN and MLP workloads).
class DenseClient final : public FlClient {
 public:
  /// The dataset must outlive the client; `shard` indexes into it.
  DenseClient(nn::FeedForward model, const data::DenseDataset* dataset,
              std::vector<std::size_t> shard, util::Rng rng);

  std::size_t param_count() override { return model_.param_count(); }
  std::size_t local_samples() const override { return shard_.size(); }
  void set_params(std::span<const float> params) override;
  void get_params(std::span<float> out) override;
  double train_local(int epochs, std::size_t batch_size, float lr) override;
  std::uint64_t lifetime_steps() const override { return lifetime_steps_; }
  std::vector<std::uint64_t> mutable_state() const override;
  void restore_mutable_state(std::span<const std::uint64_t> state) override;

 private:
  nn::FeedForward model_;
  const data::DenseDataset* dataset_;
  std::vector<std::size_t> shard_;
  util::Rng rng_;
  std::uint64_t lifetime_steps_ = 0;
};

/// LstmLm over a SequenceDataset shard (the NWP workload).
class SequenceClient final : public FlClient {
 public:
  SequenceClient(nn::LstmLm model, const data::SequenceDataset* dataset,
                 std::vector<std::size_t> shard, util::Rng rng);

  std::size_t param_count() override { return model_.param_count(); }
  std::size_t local_samples() const override { return shard_.size(); }
  void set_params(std::span<const float> params) override;
  void get_params(std::span<float> out) override;
  double train_local(int epochs, std::size_t batch_size, float lr) override;
  std::uint64_t lifetime_steps() const override { return lifetime_steps_; }
  std::vector<std::uint64_t> mutable_state() const override;
  void restore_mutable_state(std::span<const std::uint64_t> state) override;

 private:
  nn::LstmLm model_;
  const data::SequenceDataset* dataset_;
  std::vector<std::size_t> shard_;
  util::Rng rng_;
  std::uint64_t lifetime_steps_ = 0;
};

}  // namespace cmfl::fl
