#include "core/significance.h"

#include <limits>
#include <stdexcept>

#include "tensor/vector_ops.h"

namespace cmfl::core {

double norm_ratio_significance(std::span<const float> update,
                               std::span<const float> model) {
  if (update.size() != model.size()) {
    throw std::invalid_argument("norm_ratio_significance: size mismatch");
  }
  if (update.empty()) {
    throw std::invalid_argument("norm_ratio_significance: empty vectors");
  }
  const double un = tensor::norm2(update);
  const double mn = tensor::norm2(model);
  if (mn == 0.0) {
    return un == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return un / mn;
}

}  // namespace cmfl::core
