#include "nn/embedding.h"

#include <stdexcept>

#include "tensor/init.h"

namespace cmfl::nn {

Embedding::Embedding(std::size_t vocab, std::size_t dim)
    : vocab_(vocab), dim_(dim), table_(vocab, dim), grad_table_(vocab, dim) {
  if (vocab == 0 || dim == 0) {
    throw std::invalid_argument("Embedding: dimensions must be positive");
  }
}

void Embedding::lookup_into(std::span<const int> tokens,
                            tensor::Matrix& out) const {
  out.resize(tokens.size(), dim_);
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const int t = tokens[i];
    if (t < 0 || static_cast<std::size_t>(t) >= vocab_) {
      throw std::invalid_argument("Embedding::lookup: token " +
                                  std::to_string(t) + " out of range");
    }
    auto src = table_.row(static_cast<std::size_t>(t));
    auto dst = out.row(i);
    std::copy(src.begin(), src.end(), dst.begin());
  }
}

void Embedding::accumulate_grad(std::span<const int> tokens,
                                const tensor::Matrix& grad) {
  if (grad.rows() != tokens.size() || grad.cols() != dim_) {
    throw std::invalid_argument("Embedding::accumulate_grad: shape mismatch");
  }
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const int t = tokens[i];
    if (t < 0 || static_cast<std::size_t>(t) >= vocab_) {
      throw std::invalid_argument("Embedding::accumulate_grad: token " +
                                  std::to_string(t) + " out of range");
    }
    auto dst = grad_table_.row(static_cast<std::size_t>(t));
    auto src = grad.row(i);
    for (std::size_t j = 0; j < dim_; ++j) dst[j] += src[j];
  }
}

void Embedding::init_params(util::Rng& rng) {
  // Modest scale keeps early LSTM activations in the linear region.
  tensor::gaussian(table_.flat(), 0.1f, rng);
}

void Embedding::zero_grads() { grad_table_.zero(); }

}  // namespace cmfl::nn
