#include "data/dataset.h"

#include <algorithm>
#include <stdexcept>

namespace cmfl::data {

void DenseDataset::validate() const {
  if (x.rows() != y.size()) {
    throw std::invalid_argument("DenseDataset: row/label count mismatch");
  }
}

void DenseDataset::gather(std::span<const std::size_t> indices,
                          tensor::Matrix& bx, std::vector<int>& by) const {
  bx = tensor::Matrix(indices.size(), x.cols());
  by.resize(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= size()) {
      throw std::out_of_range("DenseDataset::gather: index out of range");
    }
    auto src = x.row(indices[i]);
    auto dst = bx.row(i);
    std::copy(src.begin(), src.end(), dst.begin());
    by[i] = y[indices[i]];
  }
}

void SequenceDataset::validate() const {
  if (seq_len == 0) {
    throw std::invalid_argument("SequenceDataset: seq_len must be positive");
  }
  if (tokens.size() != next_token.size() * seq_len) {
    throw std::invalid_argument("SequenceDataset: token buffer size mismatch");
  }
  for (int t : tokens) {
    if (t < 0 || static_cast<std::size_t>(t) >= vocab) {
      throw std::invalid_argument("SequenceDataset: token out of vocab range");
    }
  }
  for (int t : next_token) {
    if (t < 0 || static_cast<std::size_t>(t) >= vocab) {
      throw std::invalid_argument("SequenceDataset: label out of vocab range");
    }
  }
}

void SequenceDataset::gather(std::span<const std::size_t> indices,
                             nn::SeqBatch& bx, std::vector<int>& by) const {
  bx.batch = indices.size();
  bx.seq_len = seq_len;
  bx.tokens.resize(indices.size() * seq_len);
  by.resize(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= size()) {
      throw std::out_of_range("SequenceDataset::gather: index out of range");
    }
    std::copy(tokens.begin() + static_cast<std::ptrdiff_t>(indices[i] * seq_len),
              tokens.begin() +
                  static_cast<std::ptrdiff_t>((indices[i] + 1) * seq_len),
              bx.tokens.begin() + static_cast<std::ptrdiff_t>(i * seq_len));
    by[i] = next_token[indices[i]];
  }
}

std::size_t Partition::total_samples() const noexcept {
  std::size_t total = 0;
  for (const auto& shard : client_indices) total += shard.size();
  return total;
}

}  // namespace cmfl::data
