#include "fl/shard.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

namespace cmfl::fl {

std::vector<ShardRange> shard_partition(std::size_t dim, std::size_t shards) {
  if (shards == 0) {
    throw std::invalid_argument("shard_partition: shards must be >= 1");
  }
  std::vector<ShardRange> ranges(shards);
  std::size_t prev = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    // Ideal cut at dim·(s+1)/S, rounded to the next-lower multiple of 64 so
    // every interior boundary lands on a SignPack word; the last shard
    // absorbs the tail.
    std::size_t cut = s + 1 == shards ? dim : (dim * (s + 1) / shards) & ~std::size_t{63};
    cut = std::max(cut, prev);
    ranges[s] = {prev, cut};
    prev = cut;
  }
  return ranges;
}

namespace {

/// Runs fn(s) for every shard s: one pool run, or a direct call at S = 1.
/// The pool gets a reference wrapper, which std::function stores inline.
template <typename Fn>
void for_each_shard(util::WorkStealingPool* pool, std::size_t shards,
                    Fn&& fn) {
  if (pool != nullptr) {
    pool->run(shards, std::ref(fn));
  } else {
    fn(0);
  }
}

}  // namespace

ShardedAggregator::ShardedAggregator(std::size_t dim,
                                     const ShardOptions& options)
    : dim_(dim),
      ranges_(shard_partition(dim, options.shards)),
      stats_(options.shards) {
  if (options.shards > 1) {
    pool_ = std::make_unique<util::WorkStealingPool>(options.shards);
  }
}

std::vector<UpdateValidator::UploadScalars> ShardedAggregator::screen(
    std::span<const std::span<const float>> updates,
    std::span<const std::uint64_t> wire_bytes) {
  if (wire_bytes.size() != updates.size()) {
    throw std::invalid_argument(
        "ShardedAggregator: one wire size per upload");
  }
  std::vector<UpdateValidator::UploadScalars> out(updates.size());
  const std::size_t shards = stats_.size();
  for_each_shard(pool_.get(), shards, [&](std::size_t s) {
    ShardStats add;
    for (std::size_t i = s; i < updates.size(); i += shards) {
      out[i].finite = update_all_finite(updates[i]);
      out[i].norm = update_l2_norm(updates[i]);
      add.uploads += 1;
      add.bytes += wire_bytes[i];
    }
    stats_[s].uploads += add.uploads;
    stats_[s].bytes += add.bytes;
  });
  return out;
}

void ShardedAggregator::aggregate(
    Aggregation rule, std::span<const std::span<const float>> updates,
    std::span<const float> weights, const RobustAggOptions& options,
    std::span<const double> norms, std::span<float> out) {
  if (out.size() != dim_) {
    throw std::invalid_argument("ShardedAggregator: output size != dim");
  }
  // The clipped rule's plan (median radius -> per-update coefficients) is a
  // cross-upload reduction; computing it here once would be redundant with
  // aggregate_updates_range doing so per shard, but the per-shard plan is
  // identical (pure function of norms/options), so correctness holds either
  // way.  Fall back to the serial norm scan when the caller has none —
  // exact same helper the scalar pass uses, so bits never depend on which
  // side computed them.
  std::vector<double> computed;
  if (rule == Aggregation::kNormClippedMean && norms.empty()) {
    computed.reserve(updates.size());
    for (const auto& u : updates) computed.push_back(update_l2_norm(u));
    norms = computed;
  }
  for_each_shard(pool_.get(), stats_.size(), [&](std::size_t s) {
    aggregate_updates_range(rule, updates, weights, options, norms, out,
                            ranges_[s].lo, ranges_[s].hi);
    stats_[s].range_passes += 1;
  });
}

std::vector<ShardStats> ShardedAggregator::stats() const { return stats_; }

std::vector<std::uint64_t> ShardedAggregator::stats_words() const {
  std::vector<std::uint64_t> words;
  words.reserve(3 * stats_.size());
  for (const ShardStats& st : stats_) {
    words.push_back(st.uploads);
    words.push_back(st.range_passes);
    words.push_back(st.bytes);
  }
  return words;
}

void ShardedAggregator::restore_stats_words(
    std::span<const std::uint64_t> words) {
  if (words.size() != 3 * stats_.size()) {
    throw std::invalid_argument(
        "ShardedAggregator: shard stats word count mismatch (" +
        std::to_string(words.size()) + " for " +
        std::to_string(stats_.size()) + " shards)");
  }
  for (std::size_t s = 0; s < stats_.size(); ++s) {
    stats_[s].uploads = words[3 * s];
    stats_[s].range_passes = words[3 * s + 1];
    stats_[s].bytes = words[3 * s + 2];
  }
}

}  // namespace cmfl::fl
