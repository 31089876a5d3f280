// Federated multi-task learning loop (MOCHA) with optional CMFL filtering —
// the paper's §V-B experiment.
//
// Differences from the single-model FL loop:
//  * every client is a task with its own weight row in the global matrix W;
//  * aggregation applies each uploaded Δw_k to its own row (no averaging
//    across tasks);
//  * the CMFL feedback signal for task k is the Ω-weighted combination of
//    the previous round's task updates, Σ_j Ω_kj Δw_j — "locally calculating
//    the changing of the global matrix based on the local update and the
//    record of the relationship matrix" (paper §IV-B Extensions);
//  * the server refreshes Ω from W periodically (closed-form MOCHA update).
#pragma once

#include <memory>

#include "core/filter.h"
#include "data/partition.h"
#include "fl/simulation.h"
#include "mtl/mocha.h"

namespace cmfl::mtl {

struct MtlOptions {
  TaskLoss loss = TaskLoss::kLogistic;
  double lambda = 0.01;
  std::size_t omega_every = 10;
  double omega_ridge = 1e-3;
  int local_epochs = 10;          // E = 10 in the paper's MOCHA setup
  std::size_t batch_size = 3;     // B = 3
  float learning_rate = 1e-2f;    // constant, per the paper ("η = 0.0001";
                                  // rescaled for the synthetic features)
  std::size_t max_iterations = 200;
  double target_accuracy = 0.0;
  std::size_t eval_every = 5;
  std::size_t min_uploads = 0;
  double test_fraction = 0.3;
  bool parallel = true;
  std::uint64_t seed = 42;
};

class MtlSimulation {
 public:
  /// `dataset` must outlive the simulation; `partition` assigns samples to
  /// tasks (one client per task).
  MtlSimulation(const data::DenseDataset* dataset,
                const data::Partition& partition,
                std::unique_ptr<core::UpdateFilter> filter,
                const MtlOptions& options);

  fl::SimulationResult run();

 private:
  const data::DenseDataset* dataset_;
  std::vector<TaskSolver> solvers_;
  std::unique_ptr<core::UpdateFilter> filter_;
  MtlOptions options_;
  std::size_t features_;
};

}  // namespace cmfl::mtl
