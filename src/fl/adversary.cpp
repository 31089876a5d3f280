#include "fl/adversary.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace cmfl::fl {

std::string attack_name(Attack attack) {
  switch (attack) {
    case Attack::kNone: return "none";
    case Attack::kSignFlip: return "signflip";
    case Attack::kScale: return "scale";
    case Attack::kGarbage: return "garbage";
    case Attack::kFreeRider: return "freerider";
    case Attack::kLabelFlip: return "labelflip";
  }
  return "unknown";
}

ByzantineClient::ByzantineClient(std::unique_ptr<FlClient> inner,
                                 const AdversarySpec& spec,
                                 std::uint64_t client_id)
    : inner_(std::move(inner)),
      spec_(spec),
      rng_(util::SplitMix64(spec.seed ^ (client_id * 0x9e3779b97f4a7c15ULL))
               .next()) {
  if (!inner_) {
    throw std::invalid_argument("ByzantineClient: null inner client");
  }
  broadcast_.resize(inner_->param_count(), 0.0f);
}

void ByzantineClient::set_params(std::span<const float> params) {
  broadcast_.assign(params.begin(), params.end());
  saw_broadcast_ = true;
  inner_->set_params(params);
}

double ByzantineClient::train_local(int epochs, std::size_t batch_size,
                                    float lr) {
  switch (spec_.attack) {
    case Attack::kFreeRider:
    case Attack::kGarbage:
      // No local compute: the reply is fabricated in get_params().
      return 0.0;
    case Attack::kLabelFlip:
      // Gradient ascent on the honest local objective.
      return inner_->train_local(epochs, batch_size, -lr);
    default:
      return inner_->train_local(epochs, batch_size, lr);
  }
}

void ByzantineClient::get_params(std::span<float> out) {
  const std::size_t dim = broadcast_.size();
  if (out.size() != dim) {
    throw std::invalid_argument("ByzantineClient: get_params dim mismatch");
  }
  inner_->get_params(out);
  // Every attack tampers with the update *relative to the last broadcast*.
  // Before the first broadcast there is no update to tamper with (servers
  // pulling initial parameters see the honest ones), so the attack stays
  // dormant — otherwise an attacker at client 0 would poison the initial
  // global model before any round, validator, or filter exists.
  if (!saw_broadcast_) return;
  switch (spec_.attack) {
    case Attack::kNone:
    case Attack::kLabelFlip:
      // Label-flip poisons via training itself; the update is reported as-is.
      return;
    case Attack::kSignFlip:
      // x' = x_broadcast − u  ⇒  reported update is −u.
      for (std::size_t i = 0; i < dim; ++i) {
        out[i] = 2.0f * broadcast_[i] - out[i];
      }
      return;
    case Attack::kScale: {
      const auto lambda = static_cast<float>(spec_.scale);
      for (std::size_t i = 0; i < dim; ++i) {
        out[i] = broadcast_[i] + lambda * (out[i] - broadcast_[i]);
      }
      return;
    }
    case Attack::kFreeRider:
      // Zero update: echo the broadcast back.
      std::copy(broadcast_.begin(), broadcast_.end(), out.begin());
      return;
    case Attack::kGarbage: {
      const auto stddev = static_cast<float>(spec_.garbage_stddev);
      const double poison_prob =
          dim == 0 ? 0.0
                   : std::min(1.0, spec_.garbage_nonfinite /
                                       static_cast<double>(dim));
      for (std::size_t i = 0; i < dim; ++i) {
        float v = rng_.normal_f(0.0f, stddev);
        if (poison_prob > 0.0 && rng_.bernoulli(poison_prob)) {
          // Alternate NaN and ±inf deterministically off the same stream.
          v = rng_.bernoulli(0.5)
                  ? std::numeric_limits<float>::quiet_NaN()
                  : (rng_.bernoulli(0.5)
                         ? std::numeric_limits<float>::infinity()
                         : -std::numeric_limits<float>::infinity());
        }
        out[i] = broadcast_[i] + v;
      }
      return;
    }
  }
}

std::vector<std::uint64_t> ByzantineClient::mutable_state() const {
  // [attack rng (4 words)] ++ [inner client state].
  std::vector<std::uint64_t> state = util::rng_state_words(rng_);
  const std::vector<std::uint64_t> inner = inner_->mutable_state();
  state.insert(state.end(), inner.begin(), inner.end());
  return state;
}

void ByzantineClient::restore_mutable_state(
    std::span<const std::uint64_t> state) {
  if (state.size() < 4) {
    throw std::invalid_argument("ByzantineClient: truncated state blob");
  }
  util::restore_rng_state(rng_, state.first(4));
  inner_->restore_mutable_state(state.subspan(4));
}

std::size_t apply_adversaries(
    std::vector<std::unique_ptr<FlClient>>& clients,
    const AdversarySpec& spec, double fraction) {
  if (fraction < 0.0 || fraction > 1.0) {
    throw std::invalid_argument(
        "apply_adversaries: fraction must lie in [0, 1]");
  }
  if (spec.attack == Attack::kNone || fraction == 0.0) return 0;
  const auto count = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(clients.size())));
  for (std::size_t k = 0; k < count; ++k) {
    clients[k] = std::make_unique<ByzantineClient>(std::move(clients[k]),
                                                   spec, k);
  }
  return count;
}

}  // namespace cmfl::fl
