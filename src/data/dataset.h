// Dataset containers.
//
// Two sample families cover all four workloads:
//  * DenseDataset — fixed-width feature rows + integer labels (digit images,
//    HAR feature vectors, Semeion bitmaps).
//  * SequenceDataset — fixed-length token windows + next-token labels (the
//    next-word-prediction workload).
// A Partition is a per-client index list into a shared dataset; shards never
// copy sample storage.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/lstm_lm.h"
#include "tensor/matrix.h"

namespace cmfl::data {

struct DenseDataset {
  tensor::Matrix x;       // samples × features
  std::vector<int> y;     // class labels

  std::size_t size() const noexcept { return y.size(); }
  std::size_t features() const noexcept { return x.cols(); }

  /// Throws std::invalid_argument if x/y row counts disagree.
  void validate() const;

  /// Materializes the subset selected by `indices` as a batch.
  void gather(std::span<const std::size_t> indices, tensor::Matrix& bx,
              std::vector<int>& by) const;
};

struct SequenceDataset {
  std::vector<int> tokens;      // windows × seq_len, row-major
  std::vector<int> next_token;  // label per window
  std::size_t seq_len = 0;
  std::size_t vocab = 0;

  std::size_t size() const noexcept { return next_token.size(); }

  void validate() const;

  void gather(std::span<const std::size_t> indices, nn::SeqBatch& bx,
              std::vector<int>& by) const;
};

/// Per-client shard: indices into the shared dataset.
struct Partition {
  std::vector<std::vector<std::size_t>> client_indices;

  std::size_t clients() const noexcept { return client_indices.size(); }
  std::size_t total_samples() const noexcept;
};

}  // namespace cmfl::data
