// Loss functions.  Each returns the mean loss over the batch and writes the
// gradient with respect to the raw model output (logits / predictions),
// already divided by the batch size.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/matrix.h"

namespace cmfl::nn {

/// Softmax + cross-entropy over integer class labels.
/// logits: (batch × classes); labels: batch entries in [0, classes).
/// Throws std::invalid_argument on shape/label violations.
double softmax_cross_entropy(const tensor::Matrix& logits,
                             std::span<const int> labels,
                             tensor::Matrix& grad);

/// Row-wise softmax probabilities (numerically stabilized); used by
/// evaluation paths that need calibrated scores.
tensor::Matrix softmax(const tensor::Matrix& logits);

/// Allocation-free form: writes the row-wise softmax of `logits` into
/// `probs` (resized to match; may not alias logits).  Same op sequence as
/// softmax().
void softmax_into(const tensor::Matrix& logits, tensor::Matrix& probs);

/// Index of the max logit per row.
std::vector<int> argmax_rows(const tensor::Matrix& logits);

/// Fraction of rows whose argmax equals the label.
double accuracy(const tensor::Matrix& logits, std::span<const int> labels);

}  // namespace cmfl::nn
