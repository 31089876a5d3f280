// fl::ShardedAggregator: the bit-identity contract of the sharded
// parameter-server pipeline (DESIGN.md §17) — partition alignment, the
// index-order collect barrier, exact scalar-pass parity with the serial
// helpers, range-fan-out aggregation equal to aggregate_updates for every
// rule at every shard count, checkpointable per-shard counters, and the
// threading model (shard 0 runs on the collecting thread, S shards start
// S − 1 workers, submit is safe from any thread).
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
#include "tensor/kernels.h"
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

TEST(ShardedAggregator, ScalarPassMatchesSerialHelpers) {
  const std::size_t dim = 777;
  const auto updates = make_updates(9, dim);
  tensor::SignPack estimate;
  {
    util::Rng rng(5);
    std::vector<float> est(dim);
    for (auto& x : est) x = rng.uniform_f(-1.0f, 1.0f);
    estimate.assign(est);
  }

  for (const std::size_t s : {1u, 2u, 4u, 8u}) {
    ShardedAggregator agg(dim, shard_opts(s));
    agg.begin_batch(updates.size());
    // Submit in reverse order: collect must still return index order.
    for (std::size_t i = updates.size(); i-- > 0;) {
      agg.submit_update(i, updates[i], &estimate, 100 + i);
    }
    const auto results = agg.collect(updates.size());
    ASSERT_EQ(results.size(), updates.size());
    for (std::size_t i = 0; i < updates.size(); ++i) {
      EXPECT_FALSE(results[i].error);
      EXPECT_EQ(results[i].scalars.finite, update_all_finite(updates[i]));
      // Bit-exact: the shard worker runs the same serial reduction.
      EXPECT_EQ(results[i].scalars.norm, update_l2_norm(updates[i]));
      EXPECT_EQ(results[i].sign_matches,
                tensor::count_sign_matches(updates[i], estimate));
    }
  }
}

TEST(ShardedAggregator, ScalarPassFlagsNonFiniteUploads) {
  const std::size_t dim = 256;
  auto updates = make_updates(4, dim);
  updates[2][100] = std::numeric_limits<float>::quiet_NaN();

  ShardedAggregator agg(dim, shard_opts(2));
  agg.begin_batch(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    agg.submit_update(i, updates[i], nullptr, 0);
  }
  const auto results = agg.collect(updates.size());
  EXPECT_TRUE(results[0].scalars.finite);
  EXPECT_FALSE(results[2].scalars.finite);
}

TEST(ShardedAggregator, JobErrorsAreCapturedPerUpload) {
  ShardedAggregator agg(128, shard_opts(4));
  agg.begin_batch(3);
  agg.submit(0, 0, [] {
    ShardedAggregator::UploadResult r;
    r.scalars.norm = 1.0;
    return r;
  });
  agg.submit(1, 0, []() -> ShardedAggregator::UploadResult {
    throw std::runtime_error("decode failed");
  });
  agg.submit(2, 0, [] {
    ShardedAggregator::UploadResult r;
    r.scalars.norm = 3.0;
    return r;
  });
  const auto results = agg.collect(3);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].error);
  EXPECT_EQ(results[0].scalars.norm, 1.0);
  ASSERT_TRUE(results[1].error);
  EXPECT_THROW(std::rethrow_exception(results[1].error), std::runtime_error);
  EXPECT_FALSE(results[2].error);
  EXPECT_EQ(results[2].scalars.norm, 3.0);
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
  agg.begin_batch(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    agg.submit_update(i, updates[i], nullptr, 10 * (i + 1));
  }
  agg.collect(updates.size());

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

TEST(ShardedAggregator, ShardZeroRunsOnTheCollectingThread) {
  // The coordinating thread serves shard 0: its jobs run inside collect(),
  // on the caller; every other shard's jobs run on that shard's worker.
  for (const std::size_t s : {1u, 3u}) {
    SCOPED_TRACE("shards " + std::to_string(s));
    ShardedAggregator agg(256, shard_opts(s));
    std::vector<std::thread::id> ran_on(3 * s);
    agg.begin_batch(ran_on.size());
    for (std::size_t i = 0; i < ran_on.size(); ++i) {
      agg.submit(i, 0, [&ran_on, i] {
        ran_on[i] = std::this_thread::get_id();
        return ShardedAggregator::UploadResult{};
      });
    }
    agg.collect(ran_on.size());
    for (std::size_t i = 0; i < ran_on.size(); ++i) {
      if (i % s == 0) {
        EXPECT_EQ(ran_on[i], std::this_thread::get_id()) << "upload " << i;
      } else {
        EXPECT_NE(ran_on[i], std::this_thread::get_id()) << "upload " << i;
      }
    }
  }
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

TEST(ShardedAggregator, SubmitIsSafeFromProducerThreads) {
  // Uploads arrive from several producer threads — shard 0's included —
  // and collect() on the coordinating thread still returns every result in
  // index order.
  const std::size_t dim = 512;
  const auto updates = make_updates(24, dim);
  for (const std::size_t s : {1u, 3u}) {
    SCOPED_TRACE("shards " + std::to_string(s));
    ShardedAggregator agg(dim, shard_opts(s));
    agg.begin_batch(updates.size());
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < 4; ++p) {
      producers.emplace_back([&, p] {
        for (std::size_t i = p; i < updates.size(); i += 4) {
          agg.submit_update(i, updates[i], nullptr, i);
        }
      });
    }
    for (auto& t : producers) t.join();
    const auto results = agg.collect(updates.size());
    ASSERT_EQ(results.size(), updates.size());
    for (std::size_t i = 0; i < updates.size(); ++i) {
      EXPECT_EQ(results[i].scalars.norm, update_l2_norm(updates[i]));
    }
  }
}

TEST(ShardedAggregator, RejectsZeroShards) {
  EXPECT_THROW(ShardedAggregator(128, shard_opts(0)), std::invalid_argument);
}

}  // namespace
}  // namespace cmfl::fl
