// Token embedding table for the next-word-prediction LSTM.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/matrix.h"
#include "util/rng.h"

namespace cmfl::nn {

class Embedding {
 public:
  /// vocab × dim lookup table.
  Embedding(std::size_t vocab, std::size_t dim);

  std::size_t vocab() const noexcept { return vocab_; }
  std::size_t dim() const noexcept { return dim_; }

  /// Gathers rows for `tokens` (each in [0, vocab)) into `out`, resized to
  /// batch × dim reusing capacity.  Throws std::invalid_argument on
  /// out-of-range tokens.
  void lookup_into(std::span<const int> tokens, tensor::Matrix& out) const;

  /// Scatters `grad` (batch × dim) back into the gradient table for the
  /// same token batch used in lookup_into().
  void accumulate_grad(std::span<const int> tokens, const tensor::Matrix& grad);

  void init_params(util::Rng& rng);
  void zero_grads();

  std::span<float> params() noexcept { return table_.flat(); }
  std::span<float> grads() noexcept { return grad_table_.flat(); }

 private:
  std::size_t vocab_;
  std::size_t dim_;
  tensor::Matrix table_;       // vocab × dim
  tensor::Matrix grad_table_;  // vocab × dim
};

}  // namespace cmfl::nn
