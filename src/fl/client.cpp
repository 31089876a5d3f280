#include "fl/client.h"

#include <stdexcept>

namespace cmfl::fl {

void FlClient::restore_mutable_state(std::span<const std::uint64_t> state) {
  if (!state.empty()) {
    throw std::invalid_argument(
        "FlClient: state blob for a stateless client");
  }
}

LocalStep local_update(FlClient& client, const core::UpdateFilter& filter,
                       const core::FilterContext& ctx, int epochs,
                       std::size_t batch_size, float lr,
                       std::vector<float>& update) {
  const std::span<const float> global = ctx.global_model;
  client.set_params(global);
  LocalStep step;
  step.train_loss = client.train_local(epochs, batch_size, lr);
  update.resize(global.size());
  client.get_params(update);
  for (std::size_t i = 0; i < update.size(); ++i) update[i] -= global[i];
  step.decision = filter.decide(update, ctx);
  return step;
}

DenseClient::DenseClient(nn::FeedForward model,
                         const data::DenseDataset* dataset,
                         std::vector<std::size_t> shard, util::Rng rng)
    : model_(std::move(model)),
      dataset_(dataset),
      shard_(std::move(shard)),
      rng_(rng) {
  if (dataset_ == nullptr) {
    throw std::invalid_argument("DenseClient: null dataset");
  }
  if (shard_.empty()) {
    throw std::invalid_argument("DenseClient: empty shard");
  }
}

void DenseClient::set_params(std::span<const float> params) {
  model_.set_params(params);
}

void DenseClient::get_params(std::span<float> out) {
  model_.get_params(out);
}

double DenseClient::train_local(int epochs, std::size_t batch_size,
                                float lr) {
  if (epochs <= 0) {
    throw std::invalid_argument("DenseClient: epochs must be positive");
  }
  data::Batcher batcher(shard_, batch_size);
  tensor::Matrix bx;
  std::vector<int> by;
  double last_epoch_loss = 0.0;
  for (int e = 0; e < epochs; ++e) {
    double loss_sum = 0.0;
    std::size_t batches = 0;
    for (const auto& batch : batcher.epoch(rng_)) {
      dataset_->gather(batch, bx, by);
      loss_sum += model_.train_batch(bx, by, lr);
      ++batches;
      ++lifetime_steps_;
    }
    last_epoch_loss = batches ? loss_sum / static_cast<double>(batches) : 0.0;
  }
  return last_epoch_loss;
}

std::vector<std::uint64_t> DenseClient::mutable_state() const {
  return util::rng_state_words(rng_);
}

void DenseClient::restore_mutable_state(
    std::span<const std::uint64_t> state) {
  util::restore_rng_state(rng_, state);
}

SequenceClient::SequenceClient(nn::LstmLm model,
                               const data::SequenceDataset* dataset,
                               std::vector<std::size_t> shard, util::Rng rng)
    : model_(std::move(model)),
      dataset_(dataset),
      shard_(std::move(shard)),
      rng_(rng) {
  if (dataset_ == nullptr) {
    throw std::invalid_argument("SequenceClient: null dataset");
  }
  if (shard_.empty()) {
    throw std::invalid_argument("SequenceClient: empty shard");
  }
}

void SequenceClient::set_params(std::span<const float> params) {
  model_.set_params(params);
}

void SequenceClient::get_params(std::span<float> out) {
  model_.get_params(out);
}

double SequenceClient::train_local(int epochs, std::size_t batch_size,
                                   float lr) {
  if (epochs <= 0) {
    throw std::invalid_argument("SequenceClient: epochs must be positive");
  }
  data::Batcher batcher(shard_, batch_size);
  nn::SeqBatch bx;
  std::vector<int> by;
  double last_epoch_loss = 0.0;
  for (int e = 0; e < epochs; ++e) {
    double loss_sum = 0.0;
    std::size_t batches = 0;
    for (const auto& batch : batcher.epoch(rng_)) {
      dataset_->gather(batch, bx, by);
      loss_sum += model_.train_batch(bx, by, lr);
      ++batches;
      ++lifetime_steps_;
    }
    last_epoch_loss = batches ? loss_sum / static_cast<double>(batches) : 0.0;
  }
  return last_epoch_loss;
}

std::vector<std::uint64_t> SequenceClient::mutable_state() const {
  return util::rng_state_words(rng_);
}

void SequenceClient::restore_mutable_state(
    std::span<const std::uint64_t> state) {
  util::restore_rng_state(rng_, state);
}

}  // namespace cmfl::fl
