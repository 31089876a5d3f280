// MOCHA-style federated multi-task learning substrate.
//
// Each client k is a *task* with its own linear model w_k over the shared
// feature space; tasks are coupled by the relationship matrix Ω through the
// objective
//   min_W  Σ_k (1/n_k) Σ_i hinge(y_i · w_kᵀ x_i)  +  (λ/2) tr(W Ω Wᵀ).
// Clients optimize their own w_k locally (the Ω-coupling gradient
// λ Σ_j Ω_kj w_j is computable locally because W and Ω are broadcast), and
// the server refreshes Ω from the aggregated W.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "mtl/omega.h"
#include "util/rng.h"

namespace cmfl::mtl {

/// Labels are {0,1} in the datasets; the margin losses work on {-1,+1}.
inline int to_pm1(int label) noexcept { return label == 1 ? 1 : -1; }

/// Per-task loss.  MOCHA's reference implementation uses the hinge (SVM
/// dual); we default to logistic because its gradient never vanishes at the
/// margin — local updates keep carrying directional information throughout
/// training, which the CMFL relevance measure depends on (DESIGN.md §6).
enum class TaskLoss { kLogistic, kHinge };

/// The task-side solver: runs local SGD steps on one task's weight vector.
class TaskSolver {
 public:
  /// `dataset` must outlive the solver; `shard` is the task's sample
  /// indices split into train/test internally by `test_fraction`.
  TaskSolver(const data::DenseDataset* dataset,
             std::vector<std::size_t> shard, double test_fraction,
             util::Rng rng, TaskLoss loss = TaskLoss::kLogistic);

  std::size_t train_samples() const noexcept { return train_.size(); }
  std::size_t test_samples() const noexcept { return test_.size(); }

  /// Runs `epochs` × (mini-batch hinge SGD + Ω-coupling gradient) on a
  /// working copy of this task's weights.  `w_all` holds every task's
  /// weights (tasks × features) as broadcast; the method mutates only row
  /// `task`.  Returns the final epoch's mean loss.
  double train_local(tensor::Matrix& w_all, std::size_t task,
                     const tensor::Matrix& omega, double lambda, int epochs,
                     std::size_t batch_size, float lr);

  /// Accuracy of weights `w` on this task's held-out samples.
  double test_accuracy(std::span<const float> w) const;
  /// Accuracy on the training shard (used when test shard is empty).
  double train_accuracy(std::span<const float> w) const;

 private:
  double accuracy_on(std::span<const float> w,
                     const std::vector<std::size_t>& indices) const;

  const data::DenseDataset* dataset_;
  std::vector<std::size_t> train_;
  std::vector<std::size_t> test_;
  util::Rng rng_;
  TaskLoss loss_;
};

}  // namespace cmfl::mtl
