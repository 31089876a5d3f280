#include "nn/loss.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cmfl::nn {

tensor::Matrix softmax(const tensor::Matrix& logits) {
  tensor::Matrix probs;
  softmax_into(logits, probs);
  return probs;
}

void softmax_into(const tensor::Matrix& logits, tensor::Matrix& probs) {
  probs.resize(logits.rows(), logits.cols());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    auto in = logits.row(r);
    auto out = probs.row(r);
    const float mx = *std::max_element(in.begin(), in.end());
    double sum = 0.0;
    for (std::size_t c = 0; c < in.size(); ++c) {
      out[c] = std::exp(in[c] - mx);
      sum += out[c];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (float& v : out) v *= inv;
  }
}

double softmax_cross_entropy(const tensor::Matrix& logits,
                             std::span<const int> labels,
                             tensor::Matrix& grad) {
  if (labels.size() != logits.rows()) {
    throw std::invalid_argument("softmax_cross_entropy: batch size mismatch");
  }
  if (logits.rows() == 0) {
    throw std::invalid_argument("softmax_cross_entropy: empty batch");
  }
  softmax_into(logits, grad);
  const double inv_batch = 1.0 / static_cast<double>(logits.rows());
  double loss = 0.0;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const int y = labels[r];
    if (y < 0 || static_cast<std::size_t>(y) >= logits.cols()) {
      throw std::invalid_argument("softmax_cross_entropy: label out of range");
    }
    auto g = grad.row(r);
    // p is clamped away from 0 so log stays finite under float underflow.
    const double p = std::max(1e-12, static_cast<double>(g[y]));
    loss -= std::log(p);
    g[static_cast<std::size_t>(y)] -= 1.0f;
    for (float& v : g) v = static_cast<float>(v * inv_batch);
  }
  return loss * inv_batch;
}

std::vector<int> argmax_rows(const tensor::Matrix& logits) {
  std::vector<int> out(logits.rows());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    auto row = logits.row(r);
    out[r] = static_cast<int>(
        std::max_element(row.begin(), row.end()) - row.begin());
  }
  return out;
}

double accuracy(const tensor::Matrix& logits, std::span<const int> labels) {
  if (labels.size() != logits.rows()) {
    throw std::invalid_argument("accuracy: batch size mismatch");
  }
  if (labels.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    auto row = logits.row(r);
    const auto pred = static_cast<int>(
        std::max_element(row.begin(), row.end()) - row.begin());
    correct += static_cast<std::size_t>(pred == labels[r]);
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

}  // namespace cmfl::nn
