#include "fl/round_commit.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "fl/checkpoint.h"
#include "tensor/vector_ops.h"

namespace cmfl::fl {

RoundCommitter::RoundCommitter(const SimulationOptions& options,
                               std::size_t num_clients,
                               std::vector<float> initial_global)
    : options_(options),
      global_(std::move(initial_global)),
      estimator_(global_.size(), options.estimator_ema),
      validator_(num_clients, options.validation),
      aggregator_(std::make_unique<ShardedAggregator>(
          global_.size(),
          ShardOptions{std::max<std::size_t>(1, options.sharding.shards)})) {
  result_.eliminations_per_client.assign(num_clients, 0);
  result_.uploads_per_client.assign(num_clients, 0);
  result_.history.reserve(options.max_iterations);
}

void RoundCommitter::record_elimination(std::size_t client) {
  ++result_.eliminations_per_client[client];
}

void RoundCommitter::record_upload(std::size_t client,
                                   std::uint64_t wire_bytes) {
  ++result_.uploads_per_client[client];
  result_.uploaded_bytes += wire_bytes;
}

RoundOutcome RoundCommitter::close_round(std::size_t t,
                                         std::span<const RoundReport> reports,
                                         const GlobalEvaluator& evaluate) {
  IterationRecord rec;
  rec.iteration = t;
  rec.participants = reports.size();
  RoundUploads uploads;
  double score_sum = 0.0;
  double loss_sum = 0.0;
  for (const RoundReport& r : reports) {
    score_sum += r.score;
    loss_sum += r.train_loss;
    if (r.upload) {
      record_upload(r.client, r.wire_bytes);
      uploads.add(r.client, r.update, r.samples, r.wire_bytes);
    } else {
      record_elimination(r.client);
      result_.uploaded_bytes += r.wire_bytes;  // a cluster's status frame
    }
  }
  rec.uploads = uploads.clients.size();
  if (!reports.empty()) {
    rec.mean_score = score_sum / static_cast<double>(reports.size());
    rec.mean_train_loss = loss_sum / static_cast<double>(reports.size());
  }
  return commit(std::move(rec), uploads, evaluate);
}

RoundOutcome RoundCommitter::commit(IterationRecord rec,
                                    const RoundUploads& uploads,
                                    const GlobalEvaluator& evaluate) {
  cumulative_rounds_ += rec.uploads;
  rec.cumulative_rounds = cumulative_rounds_;
  if (!uploads.updates.empty()) screen_and_apply(rec, uploads);
  rec.cumulative_upload_bytes = result_.uploaded_bytes;

  RoundOutcome out;
  const std::size_t t = rec.iteration;
  if (options_.eval_every > 0 &&
      (t % options_.eval_every == 0 || t == options_.max_iterations)) {
    const nn::EvalResult eval = evaluate(global_);
    rec.accuracy = eval.accuracy;
    rec.loss = eval.loss;
    out.evaluated = true;
    // A round with a non-finite loss never satisfies the target: the model
    // may be numerically diverged despite a plausible accuracy.
    out.stop = options_.target_accuracy > 0.0 && std::isfinite(eval.loss) &&
               eval.accuracy >= options_.target_accuracy;
  }
  result_.history.push_back(rec);
  return out;
}

void RoundCommitter::screen_and_apply(IterationRecord& rec,
                                      const RoundUploads& in) {
  const std::size_t n = in.updates.size();
  if (!in.staleness.empty() && in.staleness.size() != n) {
    throw std::invalid_argument("RoundCommitter: one staleness per update");
  }

  // Screening scalars (finiteness, the serial L2 norm) come from the
  // shards, upload i on shard i mod S, in index order.
  const std::vector<UpdateValidator::UploadScalars> pre =
      aggregator_->screen(in.updates, in.wire_bytes);
  const std::vector<Verdict> verdicts =
      validator_.screen_round(in.clients, pre);

  if (!in.staleness.empty()) {
    double stale_sum = 0.0;
    for (const std::uint64_t s : in.staleness) {
      stale_sum += static_cast<double>(s);
      rec.staleness_max =
          std::max(rec.staleness_max, static_cast<std::size_t>(s));
    }
    rec.staleness_mean = stale_sum / static_cast<double>(n);
  }

  std::vector<std::size_t> accepted;
  accepted.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (verdicts[i] == Verdict::kAccept) {
      accepted.push_back(i);
    } else {
      ++rec.rejected;
    }
  }
  if (accepted.empty()) return;

  // Weight normalisation: sample weights (FedAvg's |P_k|), times the
  // staleness discount in buffered-async rounds, which also turns the
  // uniform mean into a weighted one.  Robust rules take no weights.
  Aggregation rule = options_.aggregation;
  std::vector<float> weights;
  if (rule == Aggregation::kSampleWeighted ||
      (!in.staleness.empty() && rule == Aggregation::kUniformMean)) {
    const auto raw = [&](std::size_t i) {
      double w = in.staleness.empty()
                     ? 1.0
                     : std::pow(1.0 + static_cast<double>(in.staleness[i]),
                                -options_.schedule.staleness_exponent);
      if (options_.aggregation == Aggregation::kSampleWeighted) {
        w *= static_cast<double>(in.samples[i]);
      }
      return w;
    };
    double total = 0.0;
    for (const std::size_t i : accepted) total += raw(i);
    weights.reserve(accepted.size());
    for (const std::size_t i : accepted) {
      weights.push_back(static_cast<float>(raw(i) / total));
    }
    rule = Aggregation::kSampleWeighted;
  }

  std::vector<std::span<const float>> views;
  std::vector<double> norms;  // the clipped rule's plan reuses the scalar pass
  views.reserve(accepted.size());
  for (const std::size_t i : accepted) {
    views.push_back(in.updates[i]);
    if (rule == Aggregation::kNormClippedMean) norms.push_back(pre[i].norm);
  }
  std::vector<float> update(global_.size(), 0.0f);
  aggregator_->aggregate(rule, views, weights, options_.robust_aggregation,
                         norms, update);

  tensor::add(global_, update, global_);
  if (!prev_update_.empty()) {
    rec.delta_update = core::normalized_update_difference(prev_update_, update);
  }
  prev_update_ = update;
  estimator_.observe(update);
}

bool RoundCommitter::checkpoint_due(std::size_t t, bool stop) const {
  return options_.checkpoint_every > 0 && !options_.checkpoint_path.empty() &&
         (t % options_.checkpoint_every == 0 || t == options_.max_iterations ||
          stop);
}

TrainerCheckpoint RoundCommitter::checkpoint(std::uint64_t iteration) const {
  TrainerCheckpoint ck;
  ck.iteration = iteration;
  ck.global_params = global_;
  const std::span<const float> est = estimator_.estimate();
  ck.estimator_estimate.assign(est.begin(), est.end());
  ck.estimator_observed = estimator_.has_observation();
  ck.prev_global_update = prev_update_;
  ck.cumulative_rounds = cumulative_rounds_;
  ck.uploaded_bytes = result_.uploaded_bytes;
  ck.history = result_.history;
  ck.eliminations_per_client.assign(result_.eliminations_per_client.begin(),
                                    result_.eliminations_per_client.end());
  ck.uploads_per_client.assign(result_.uploads_per_client.begin(),
                               result_.uploads_per_client.end());
  ck.validation = validator_.report();
  // Deterministic (index-mod-S routing), so a resumed run reports the same
  // ingest totals as an uninterrupted one.
  ck.shard_stats = aggregator_->stats_words();
  return ck;
}

void RoundCommitter::restore(const TrainerCheckpoint& ck) {
  if (ck.global_params.size() != global_.size()) {
    throw std::invalid_argument(
        "RoundCommitter: checkpoint parameter dimension mismatch");
  }
  const std::size_t n = result_.uploads_per_client.size();
  if (ck.eliminations_per_client.size() != n ||
      ck.uploads_per_client.size() != n) {
    throw std::invalid_argument(
        "RoundCommitter: checkpoint client count mismatch");
  }
  // Throws on another shard count before anything changes.
  aggregator_->restore_stats_words(ck.shard_stats);
  global_ = ck.global_params;
  estimator_.restore(ck.estimator_estimate, ck.estimator_observed);
  validator_.restore(ck.validation);
  prev_update_ = ck.prev_global_update;
  cumulative_rounds_ = static_cast<std::size_t>(ck.cumulative_rounds);
  result_.uploaded_bytes = ck.uploaded_bytes;
  result_.history = ck.history;
  for (std::size_t k = 0; k < n; ++k) {
    result_.eliminations_per_client[k] =
        static_cast<std::size_t>(ck.eliminations_per_client[k]);
    result_.uploads_per_client[k] =
        static_cast<std::size_t>(ck.uploads_per_client[k]);
  }
}

SimulationResult RoundCommitter::finish() {
  SimulationResult r = std::move(result_);
  r.total_rounds = cumulative_rounds_;
  r.final_params = std::move(global_);
  r.validation = validator_.report();
  for (auto it = r.history.rbegin(); it != r.history.rend(); ++it) {
    if (!std::isnan(it->accuracy)) {
      r.final_accuracy = it->accuracy;
      break;
    }
  }
  return r;
}

}  // namespace cmfl::fl
