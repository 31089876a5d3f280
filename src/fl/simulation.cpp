#include "fl/simulation.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "codec/codec.h"
#include "fl/checkpoint.h"
#include "fl/round_commit.h"
#include "tensor/kernels.h"
#include "tensor/vector_ops.h"

namespace cmfl::fl {

std::optional<std::size_t> SimulationResult::rounds_to_accuracy(
    double a) const {
  for (const auto& rec : history) {
    if (rec.evaluated() && rec.accuracy >= a) return rec.cumulative_rounds;
  }
  return std::nullopt;
}

std::optional<std::size_t> SimulationResult::iterations_to_accuracy(
    double a) const {
  for (const auto& rec : history) {
    if (rec.evaluated() && rec.accuracy >= a) return rec.iteration;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> SimulationResult::bytes_to_accuracy(
    double a) const {
  for (const auto& rec : history) {
    if (rec.evaluated() && rec.accuracy >= a) {
      return rec.cumulative_upload_bytes;
    }
  }
  return std::nullopt;
}

FederatedSimulation::FederatedSimulation(
    std::vector<std::unique_ptr<FlClient>> clients,
    std::unique_ptr<core::UpdateFilter> filter, GlobalEvaluator evaluator,
    const SimulationOptions& options)
    : clients_(std::move(clients)),
      filter_(std::move(filter)),
      evaluator_(std::move(evaluator)),
      options_(options) {
  if (clients_.empty()) {
    throw std::invalid_argument("FederatedSimulation: no clients");
  }
  if (!filter_) {
    throw std::invalid_argument("FederatedSimulation: null filter");
  }
  if (!evaluator_) {
    throw std::invalid_argument("FederatedSimulation: null evaluator");
  }
  if (options_.max_iterations == 0) {
    throw std::invalid_argument(
        "FederatedSimulation: max_iterations must be positive");
  }
  if (options_.participation <= 0.0 || options_.participation > 1.0) {
    throw std::invalid_argument(
        "FederatedSimulation: participation must be in (0, 1]");
  }
  options_.schedule.validate();
  // Validate the codec spec eagerly: a typo must fail at construction, not
  // miles into a run on the first upload.
  codec::make_update_codec(options_.codec.spec, options_.codec.seed_salt);
  if (options_.schedule.mode != sched::RoundMode::kSync) {
    throw std::invalid_argument(
        "FederatedSimulation: only schedule.mode == kSync runs in-process; "
        "over-selection and buffered-async rounds need sched::RoundEngine");
  }
  dim_ = clients_.front()->param_count();
  for (const auto& c : clients_) {
    if (c->param_count() != dim_) {
      throw std::invalid_argument(
          "FederatedSimulation: clients disagree on parameter count");
    }
  }
}

SimulationResult FederatedSimulation::run() { return run_internal(nullptr); }

SimulationResult FederatedSimulation::resume(
    const TrainerCheckpoint& checkpoint) {
  return run_internal(&checkpoint);
}

SimulationResult FederatedSimulation::run_internal(
    const TrainerCheckpoint* resume_from) {
  const std::size_t num_clients = clients_.size();
  std::vector<float> initial(dim_);
  clients_.front()->get_params(initial);
  RoundCommitter committer(options_, num_clients, std::move(initial));

  // Per-client scratch buffers reused across iterations.  Update buffers
  // are sized lazily on a client's first participation, so a mostly-idle
  // population (small sample_size / participation) costs memory only for
  // the clients that actually train.
  std::vector<std::vector<float>> updates(num_clients);
  std::vector<LocalStep> steps(num_clients);  // decision + training loss
  std::vector<std::vector<float>> client_params;

  std::unique_ptr<util::ThreadPool> pool;
  if (options_.parallel && num_clients > 1) {
    pool = std::make_unique<util::ThreadPool>();
  }

  // Per-client codecs (stateful: RNG streams, error-feedback residuals,
  // codebook caches), materialized on first upload.  Construction draws
  // nothing from any stream, so lazy materialization is bit-identical to
  // eager.
  std::vector<std::unique_ptr<codec::UpdateCodec>> codecs(num_clients);
  const auto codec_for = [&](std::size_t k) -> codec::UpdateCodec& {
    if (!codecs[k]) {
      codecs[k] = codec::make_update_codec(options_.codec.spec,
                                           options_.codec.seed_salt + k);
    }
    return *codecs[k];
  };

  util::Rng server_rng(options_.seed);
  std::size_t start_t = 1;
  if (resume_from != nullptr) {
    const TrainerCheckpoint& ck = *resume_from;
    if (ck.client_state.size() != num_clients ||
        ck.compressor_state.size() != num_clients) {
      throw std::invalid_argument(
          "FederatedSimulation: checkpoint client count mismatch");
    }
    committer.restore(ck);
    for (std::size_t k = 0; k < num_clients; ++k) {
      clients_[k]->restore_mutable_state(ck.client_state[k]);
      codec_for(k).restore_mutable_state(ck.compressor_state[k]);
    }
    util::restore_rng_state(server_rng, ck.server_rng);
    start_t = static_cast<std::size_t>(ck.iteration) + 1;
  }

  // Bit-packed signs of ū, rebuilt once per broadcast and shared read-only
  // by every client's relevance check (tensor::SignPack in kernels.h).
  tensor::SignPack estimate_pack;

  for (std::size_t t = start_t; t <= options_.max_iterations; ++t) {
    const auto lr = static_cast<float>(options_.learning_rate.at(t));
    const std::span<const float> global = committer.global();
    core::FilterContext ctx;
    ctx.global_model = global;
    ctx.estimated_global_update = committer.estimate();
    estimate_pack.assign(ctx.estimated_global_update);
    ctx.estimated_global_update_pack = &estimate_pack;
    ctx.iteration = t;

    // --- Client sampling (FedAvg's C; 1.0 = the paper's full sync) ---
    // Quarantined clients are excluded before sampling: the server no
    // longer broadcasts to or trains them.
    std::vector<std::size_t> participants;
    participants.reserve(num_clients);
    for (std::size_t k = 0; k < num_clients; ++k) {
      if (!committer.quarantined(k)) participants.push_back(k);
    }
    if (participants.empty()) break;  // every client quarantined
    if (options_.schedule.sample_size > 0) {
      // Absolute per-round cohort size (sched::ScheduleOptions).
      if (options_.schedule.sample_size < participants.size()) {
        server_rng.shuffle(participants);
        participants.resize(options_.schedule.sample_size);
        std::sort(participants.begin(), participants.end());
      }
    } else if (options_.participation < 1.0) {
      server_rng.shuffle(participants);
      const auto count = std::max<std::size_t>(
          1, static_cast<std::size_t>(options_.participation *
                                      static_cast<double>(num_clients)));
      participants.resize(std::min(count, participants.size()));
      std::sort(participants.begin(), participants.end());
    }

    // --- LocalUpdate on every participating client (Alg. 1, 10-16) ---
    // Only the sampled participants touch their model or data: an
    // unsampled client runs no local training, is never asked for a filter
    // decision, and its scratch buffer is never even allocated (see the
    // per-client step-counter regression test in test_fl_simulation.cpp).
    auto train_one = [&](std::size_t p) {
      const std::size_t k = participants[p];
      steps[k] = local_update(*clients_[k], *filter_, ctx,
                              options_.local_epochs, options_.batch_size, lr,
                              updates[k]);
    };
    if (pool) {
      pool->parallel_for(participants.size(), train_one);
    } else {
      for (std::size_t p = 0; p < participants.size(); ++p) train_one(p);
    }

    // Snapshot the clients' local models while the global model is still
    // x_{t-1} (the local model is x_{t-1} + u_{k,t}).  Overwritten every
    // iteration so the result holds the final round's snapshot.
    if (options_.capture_client_params && participants.size() == num_clients) {
      client_params.resize(num_clients);
      for (std::size_t k = 0; k < num_clients; ++k) {
        client_params[k].resize(dim_);
        tensor::add(global, updates[k], client_params[k]);
      }
    }

    // --- Collect relevant updates S_t ---
    std::vector<std::size_t> uploaded;
    std::vector<std::size_t> eliminated;
    for (std::size_t k : participants) {
      (steps[k].decision.upload ? uploaded : eliminated).push_back(k);
    }
    if (uploaded.empty() && options_.min_uploads > 0) {
      // Force the highest-scoring participants to upload so the round is
      // not wasted entirely.
      std::vector<std::size_t> order = participants;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return steps[a].decision.score > steps[b].decision.score;
      });
      const auto forced = static_cast<std::ptrdiff_t>(
          std::min(options_.min_uploads, order.size()));
      uploaded.assign(order.begin(), order.begin() + forced);
      eliminated.assign(order.begin() + forced, order.end());
    }
    for (std::size_t k : eliminated) committer.record_elimination(k);

    IterationRecord rec;
    rec.iteration = t;
    rec.uploads = uploaded.size();
    rec.participants = participants.size();
    double score_sum = 0.0;
    for (std::size_t k : participants) score_sum += steps[k].decision.score;
    rec.mean_score = score_sum / static_cast<double>(participants.size());
    double loss_sum = 0.0;
    for (std::size_t k : participants) loss_sum += steps[k].train_loss;
    rec.mean_train_loss =
        loss_sum / static_cast<double>(participants.size());

    // --- GlobalOptimization (Algorithm 1, lines 7-9) ---
    // Encode exactly what crosses the wire; the server screens and
    // aggregates the reconstructions.
    RoundUploads received;
    for (std::size_t k : uploaded) {
      codec::UpdateCodec& codec = codec_for(k);
      const codec::EncodedUpdate enc = codec.encode(updates[k]);
      committer.record_upload(k, enc.wire_bytes());
      updates[k] = codec.decode(enc.payload);
      received.add(k, updates[k], clients_[k]->local_samples(),
                   enc.wire_bytes());
    }
    const RoundOutcome outcome = committer.commit(rec, received, evaluator_);

    if (committer.checkpoint_due(t, outcome.stop)) {
      TrainerCheckpoint ck = committer.checkpoint(t);
      ck.server_rng = util::rng_state_words(server_rng);
      ck.client_state.reserve(num_clients);
      ck.compressor_state.reserve(num_clients);
      for (std::size_t k = 0; k < num_clients; ++k) {
        ck.client_state.push_back(clients_[k]->mutable_state());
        ck.compressor_state.push_back(codec_for(k).mutable_state());
      }
      save_checkpoint_file(options_.checkpoint_path, ck);
    }
    if (outcome.stop) break;
  }

  SimulationResult result = committer.finish();
  result.client_params = std::move(client_params);
  return result;
}

}  // namespace cmfl::fl
