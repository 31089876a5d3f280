#include "core/estimator.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "tensor/vector_ops.h"

namespace cmfl::core {

GlobalUpdateEstimator::GlobalUpdateEstimator(std::size_t dim, double ema_decay)
    : estimate_(dim, 0.0f), ema_decay_(ema_decay) {
  if (dim == 0) {
    throw std::invalid_argument("GlobalUpdateEstimator: dim must be positive");
  }
  if (!(0.0 <= ema_decay && ema_decay < 1.0)) {
    throw std::invalid_argument(
        "GlobalUpdateEstimator: ema_decay must be in [0, 1)");
  }
}

void GlobalUpdateEstimator::observe(std::span<const float> global_update) {
  if (global_update.size() != estimate_.size()) {
    throw std::invalid_argument("GlobalUpdateEstimator: size mismatch");
  }
  if (!observed_ || ema_decay_ == 0.0) {
    std::copy(global_update.begin(), global_update.end(), estimate_.begin());
  } else {
    const auto decay = static_cast<float>(ema_decay_);
    const float blend = 1.0f - decay;
    for (std::size_t i = 0; i < estimate_.size(); ++i) {
      estimate_[i] = decay * estimate_[i] + blend * global_update[i];
    }
  }
  observed_ = true;
}

void GlobalUpdateEstimator::restore(std::span<const float> estimate,
                                    bool observed) {
  if (estimate.size() != estimate_.size()) {
    throw std::invalid_argument("GlobalUpdateEstimator: restore size mismatch");
  }
  std::copy(estimate.begin(), estimate.end(), estimate_.begin());
  observed_ = observed;
}

double normalized_update_difference(std::span<const float> prev,
                                    std::span<const float> next) {
  if (prev.size() != next.size()) {
    throw std::invalid_argument("normalized_update_difference: size mismatch");
  }
  if (prev.empty()) {
    throw std::invalid_argument("normalized_update_difference: empty vectors");
  }
  const double prev_norm = tensor::norm2(prev);
  std::vector<float> diff(prev.size());
  tensor::sub(next, prev, diff);
  const double diff_norm = tensor::norm2(diff);
  if (prev_norm == 0.0) {
    return diff_norm == 0.0 ? 0.0
                            : std::numeric_limits<double>::infinity();
  }
  return diff_norm / prev_norm;
}

}  // namespace cmfl::core
