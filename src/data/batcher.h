// Mini-batch iteration over a shard (index list) of a dataset.
//
// The paper's clients run E passes over their local data with mini-batch
// size B; Batcher produces one epoch's worth of shuffled batches at a time.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.h"

namespace cmfl::data {

class Batcher {
 public:
  /// `shard` is a view into the client's sample indices; the Batcher copies
  /// it so the shard may be a temporary.
  Batcher(std::span<const std::size_t> shard, std::size_t batch_size);

  std::size_t samples() const noexcept { return order_.size(); }
  std::size_t batches_per_epoch() const noexcept;

  /// Reshuffles and returns the epoch's batches (each a span-able index
  /// vector; the final batch may be smaller).
  std::vector<std::vector<std::size_t>> epoch(util::Rng& rng);

 private:
  std::vector<std::size_t> order_;
  std::size_t batch_size_;
};

}  // namespace cmfl::data
