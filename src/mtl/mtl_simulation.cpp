#include "mtl/mtl_simulation.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/estimator.h"
#include "tensor/vector_ops.h"
#include "util/work_pool.h"

namespace cmfl::mtl {

MtlSimulation::MtlSimulation(const data::DenseDataset* dataset,
                             const data::Partition& partition,
                             std::unique_ptr<core::UpdateFilter> filter,
                             const MtlOptions& options)
    : dataset_(dataset), filter_(std::move(filter)), options_(options) {
  if (dataset_ == nullptr) {
    throw std::invalid_argument("MtlSimulation: null dataset");
  }
  if (!filter_) {
    throw std::invalid_argument("MtlSimulation: null filter");
  }
  if (partition.clients() == 0) {
    throw std::invalid_argument("MtlSimulation: empty partition");
  }
  features_ = dataset_->features();
  util::Rng rng(options_.seed);
  solvers_.reserve(partition.clients());
  for (std::size_t k = 0; k < partition.clients(); ++k) {
    solvers_.emplace_back(dataset_, partition.client_indices[k],
                          options_.test_fraction, rng.split(k),
                          options_.loss);
  }
}

fl::SimulationResult MtlSimulation::run() {
  const std::size_t m = solvers_.size();
  const std::size_t d = features_;

  tensor::Matrix w(m, d);  // task weights, zero-initialized
  tensor::Matrix omega = identity_omega(m);
  tensor::Matrix prev_delta(m, d);  // previous round's global matrix update
  bool have_prev_delta = false;

  fl::SimulationResult result;
  result.eliminations_per_client.assign(m, 0);

  std::vector<std::vector<float>> deltas(m, std::vector<float>(d));
  std::vector<core::FilterDecision> decisions(m);
  std::vector<double> losses(m, 0.0);

  std::unique_ptr<util::WorkStealingPool> pool;
  if (options_.parallel && m > 1) {
    pool = std::make_unique<util::WorkStealingPool>();
  }

  // Test-set weights for the global accuracy figure.
  std::vector<double> test_weight(m);
  double test_total = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    test_weight[k] = static_cast<double>(
        solvers_[k].test_samples() ? solvers_[k].test_samples()
                                   : solvers_[k].train_samples());
    test_total += test_weight[k];
  }

  auto evaluate = [&]() {
    double acc = 0.0;
    for (std::size_t k = 0; k < m; ++k) {
      acc += test_weight[k] * solvers_[k].test_accuracy(w.row(k));
    }
    return acc / test_total;
  };

  std::vector<float> prev_flat;
  std::size_t cumulative_rounds = 0;

  for (std::size_t t = 1; t <= options_.max_iterations; ++t) {
    // --- Local task optimization (each task trains a copy of its row) ---
    auto train_one = [&](std::size_t k) {
      tensor::Matrix w_local = w;  // broadcast snapshot
      losses[k] = solvers_[k].train_local(
          w_local, k, omega, options_.lambda, options_.local_epochs,
          options_.batch_size, options_.learning_rate);
      auto& delta = deltas[k];
      auto trained = w_local.row(k);
      auto original = w.row(k);
      for (std::size_t j = 0; j < d; ++j) {
        delta[j] = trained[j] - original[j];
      }
      // CMFL feedback: the collaborative tendency of the *other* tasks'
      // previous updates.  The own-task term is excluded — otherwise a
      // drifting outlier would align perfectly with its own history and
      // never be filtered.  Off-diagonal Ω entries weight related tasks
      // once the relationship matrix has been learned; before that (near-
      // identity Ω) the reference falls back to the uniform mean.
      std::vector<float> reference(d, 0.0f);
      if (have_prev_delta && m > 1) {
        double off_diag_mass = 0.0;
        for (std::size_t other = 0; other < m; ++other) {
          if (other != k) off_diag_mass += std::fabs(omega.at(k, other));
        }
        const bool learned = off_diag_mass > 1e-6;
        for (std::size_t other = 0; other < m; ++other) {
          if (other == k) continue;
          const float coupling =
              learned ? omega.at(k, other)
                      : 1.0f / static_cast<float>(m - 1);
          if (coupling == 0.0f) continue;
          auto prev_row = prev_delta.row(other);
          for (std::size_t j = 0; j < d; ++j) {
            reference[j] += coupling * prev_row[j];
          }
        }
      }
      core::FilterContext ctx;
      ctx.global_model = w.row(k);
      ctx.estimated_global_update = reference;
      ctx.iteration = t;
      decisions[k] = filter_->decide(delta, ctx);
    };
    if (pool) {
      pool->run(m, train_one);
    } else {
      for (std::size_t k = 0; k < m; ++k) train_one(k);
    }

    // --- Collect uploads ---
    std::vector<std::size_t> uploaded;
    for (std::size_t k = 0; k < m; ++k) {
      if (decisions[k].upload) {
        uploaded.push_back(k);
      } else {
        ++result.eliminations_per_client[k];
      }
    }
    if (uploaded.empty() && options_.min_uploads > 0) {
      std::vector<std::size_t> order(m);
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return decisions[a].score > decisions[b].score;
      });
      for (std::size_t i = 0; i < std::min(options_.min_uploads, m); ++i) {
        uploaded.push_back(order[i]);
        --result.eliminations_per_client[order[i]];
      }
    }

    fl::IterationRecord rec;
    rec.iteration = t;
    rec.uploads = uploaded.size();
    cumulative_rounds += uploaded.size();
    rec.cumulative_rounds = cumulative_rounds;
    double score_sum = 0.0;
    for (const auto& dec : decisions) score_sum += dec.score;
    rec.mean_score = score_sum / static_cast<double>(m);
    rec.mean_train_loss =
        std::accumulate(losses.begin(), losses.end(), 0.0) /
        static_cast<double>(m);

    // --- Apply uploaded task updates to the global matrix ---
    prev_delta.zero();
    for (std::size_t k : uploaded) {
      auto row = w.row(k);
      auto dst = prev_delta.row(k);
      for (std::size_t j = 0; j < d; ++j) {
        row[j] += deltas[k][j];
        dst[j] = deltas[k][j];
      }
    }
    have_prev_delta = !uploaded.empty();

    // ΔUpdate (Eq. 8) on the flattened global matrix update.
    std::vector<float> flat(prev_delta.flat().begin(),
                            prev_delta.flat().end());
    if (!prev_flat.empty()) {
      rec.delta_update =
          core::normalized_update_difference(prev_flat, flat);
    }
    prev_flat = std::move(flat);

    // --- Server-side Ω refresh ---
    if (options_.omega_every > 0 && t % options_.omega_every == 0) {
      omega = update_omega(w, options_.omega_ridge);
    }

    // --- Evaluation ---
    const bool last = t == options_.max_iterations;
    if (options_.eval_every > 0 &&
        (t % options_.eval_every == 0 || last)) {
      rec.accuracy = evaluate();
      rec.loss = rec.mean_train_loss;
      result.history.push_back(rec);
      if (options_.target_accuracy > 0.0 &&
          rec.accuracy >= options_.target_accuracy) {
        break;
      }
    } else {
      result.history.push_back(rec);
    }
  }

  result.total_rounds = cumulative_rounds;
  result.final_params.assign(w.flat().begin(), w.flat().end());
  for (auto it = result.history.rbegin(); it != result.history.rend(); ++it) {
    if (it->evaluated()) {
      result.final_accuracy = it->accuracy;
      break;
    }
  }
  return result;
}

}  // namespace cmfl::mtl
