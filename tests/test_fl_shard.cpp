// fl::ShardedAggregator: the bit-identity contract of the sharded
// parameter-server pipeline (DESIGN.md §17) — partition alignment, the
// index-order scalar pass with exact parity to the serial helpers,
// range-fan-out aggregation equal to aggregate_updates for every rule at
// every shard count, checkpointable per-shard counters, and the threading
// model (S shards start S − 1 threads).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fl/robust_agg.h"
#include "fl/shard.h"
#include "util/rng.h"

namespace cmfl::fl {
namespace {

std::vector<std::vector<float>> make_updates(std::size_t count,
                                             std::size_t dim,
                                             std::uint64_t seed = 77) {
  std::vector<std::vector<float>> updates(count);
  for (std::size_t i = 0; i < count; ++i) {
    util::Rng rng(seed + i);
    updates[i].resize(dim);
    for (auto& x : updates[i]) x = rng.uniform_f(-1.0f, 1.0f);
  }
  return updates;
}

std::vector<std::span<const float>> views_of(
    const std::vector<std::vector<float>>& updates) {
  return {updates.begin(), updates.end()};
}

ShardOptions shard_opts(std::size_t s) {
  ShardOptions so;
  so.shards = s;
  return so;
}

TEST(ShardPartition, CoversDimWithAlignedBoundaries) {
  for (const std::size_t dim : {1u, 63u, 64u, 65u, 100u, 1000u, 4113u}) {
    for (const std::size_t shards : {1u, 2u, 4u, 8u, 13u}) {
      const auto ranges = shard_partition(dim, shards);
      ASSERT_EQ(ranges.size(), shards);
      EXPECT_EQ(ranges.front().lo, 0u);
      EXPECT_EQ(ranges.back().hi, dim);
      std::size_t min_size = std::numeric_limits<std::size_t>::max();
      std::size_t max_size = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        EXPECT_LE(ranges[s].lo, ranges[s].hi);
        if (s > 0) {
          EXPECT_EQ(ranges[s].lo, ranges[s - 1].hi);
          // Interior boundaries sit on SignPack word boundaries.
          EXPECT_EQ(ranges[s].lo % 64, 0u)
              << "dim " << dim << " shards " << shards << " s " << s;
        }
        min_size = std::min(min_size, ranges[s].size());
        max_size = std::max(max_size, ranges[s].size());
      }
      // Near-even deal: each ideal cut rounds down by < 64, so sizes differ
      // by at most two rounding errors (empty trailing shards excepted when
      // dim < 64 * shards).
      if (dim >= 64 * shards) EXPECT_LE(max_size - min_size, 128u);
    }
  }
  EXPECT_THROW(shard_partition(128, 0), std::invalid_argument);
}

std::vector<std::uint64_t> wire_sizes(std::size_t count, std::uint64_t base,
                                      std::uint64_t step) {
  std::vector<std::uint64_t> sizes(count);
  for (std::size_t i = 0; i < count; ++i) sizes[i] = base + step * i;
  return sizes;
}

TEST(ShardedAggregator, ScalarPassMatchesSerialHelpers) {
  const std::size_t dim = 777;
  const auto updates = make_updates(9, dim);
  const auto views = views_of(updates);

  for (const std::size_t s : {1u, 2u, 4u, 8u}) {
    ShardedAggregator agg(dim, shard_opts(s));
    const auto results = agg.screen(views, wire_sizes(updates.size(), 100, 1));
    ASSERT_EQ(results.size(), updates.size());
    for (std::size_t i = 0; i < updates.size(); ++i) {
      EXPECT_EQ(results[i].finite, update_all_finite(updates[i]));
      // Bit-exact: the shard job runs the same serial reduction.
      EXPECT_EQ(results[i].norm, update_l2_norm(updates[i]));
    }
  }
}

TEST(ShardedAggregator, ScalarPassFlagsNonFiniteUploads) {
  const std::size_t dim = 256;
  auto updates = make_updates(4, dim);
  updates[2][100] = std::numeric_limits<float>::quiet_NaN();

  ShardedAggregator agg(dim, shard_opts(2));
  const auto results =
      agg.screen(views_of(updates), wire_sizes(updates.size(), 0, 0));
  EXPECT_TRUE(results[0].finite);
  EXPECT_FALSE(results[2].finite);
}

TEST(ShardedAggregator, AggregateBitIdenticalToSerialForEveryRule) {
  // The acceptance criterion: at S in {1, 2, 4, 8} every rule's sharded
  // output equals the single-master aggregate_updates byte-for-byte, on
  // dims that do and do not divide into 64-float blocks.
  const std::size_t count = 7;
  RobustAggOptions ropt;
  ropt.trim_fraction = 0.2;
  for (const std::size_t dim : {64u, 100u, 1000u, 4113u}) {
    const auto updates = make_updates(count, dim);
    const auto views = views_of(updates);
    std::vector<float> weights(count);
    for (std::size_t i = 0; i < count; ++i) {
      weights[i] = static_cast<float>(i + 1);
    }
    const float wsum = std::accumulate(weights.begin(), weights.end(), 0.0f);
    for (auto& w : weights) w /= wsum;
    std::vector<double> norms(count);
    for (std::size_t i = 0; i < count; ++i) {
      norms[i] = update_l2_norm(updates[i]);
    }

    for (const Aggregation rule :
         {Aggregation::kUniformMean, Aggregation::kSampleWeighted,
          Aggregation::kMedian, Aggregation::kTrimmedMean,
          Aggregation::kNormClippedMean}) {
      std::vector<float> serial(dim);
      aggregate_updates(rule, views, weights, ropt, serial);
      for (const std::size_t s : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("dim " + std::to_string(dim) + " rule " +
                     aggregation_name(rule) + " shards " + std::to_string(s));
        ShardedAggregator agg(dim, shard_opts(s));
        std::vector<float> sharded(dim);
        agg.aggregate(rule, views, weights, ropt,
                      rule == Aggregation::kNormClippedMean
                          ? std::span<const double>(norms)
                          : std::span<const double>(),
                      sharded);
        EXPECT_EQ(sharded, serial);
      }
    }
  }
}

TEST(ShardedAggregator, StatsAccumulateDeterministicallyAndRoundTrip) {
  const std::size_t dim = 512;
  const auto updates = make_updates(6, dim);
  ShardedAggregator agg(dim, shard_opts(3));
  agg.screen(views_of(updates), wire_sizes(updates.size(), 10, 10));

  const auto stats = agg.stats();
  ASSERT_EQ(stats.size(), 3u);
  // index-mod-S routing: shard 0 got uploads {0, 3}, shard 1 {1, 4}, ...
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(stats[s].uploads, 2u);
    EXPECT_EQ(stats[s].bytes, 10u * (s + 1) + 10u * (s + 4));
  }

  const auto words = agg.stats_words();
  ASSERT_EQ(words.size(), 9u);
  ShardedAggregator fresh(dim, shard_opts(3));
  fresh.restore_stats_words(words);
  EXPECT_EQ(fresh.stats_words(), words);
  EXPECT_EQ(fresh.stats(), stats);

  // Word count must be 3 * shards.
  ShardedAggregator other(dim, shard_opts(2));
  EXPECT_THROW(other.restore_stats_words(words), std::invalid_argument);
}

std::size_t live_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(ShardedAggregator, StartsOneThreadPerShardBeyondTheFirst) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "needs /proc/self/task to count threads";
  }
  // Runtimes that start a helper thread on the first thread creation
  // (ThreadSanitizer does) get to do so before the baseline count.
  std::thread([] {}).join();
  const std::size_t before = live_threads();
  for (const std::size_t s : {1u, 2u, 4u}) {
    ShardedAggregator agg(256, shard_opts(s));
    EXPECT_EQ(live_threads(), before + s - 1) << "shards " << s;
  }
}

TEST(ShardedAggregator, RejectsZeroShards) {
  EXPECT_THROW(ShardedAggregator(128, shard_opts(0)), std::invalid_argument);
}

}  // namespace
}  // namespace cmfl::fl
