#include "data/partition.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "data/batcher.h"
#include "data/dataset.h"

namespace cmfl::data {
namespace {

std::vector<int> cyclic_labels(std::size_t n, int classes) {
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(i) % classes;
  }
  return labels;
}

TEST(LabelSortedPartition, ConservesAndConcentratesClasses) {
  const auto labels = cyclic_labels(1000, 10);
  const Partition p = label_sorted_partition(labels, 20);
  validate_partition(p, 1000);
  EXPECT_EQ(p.total_samples(), 1000u);
  // Every client's shard spans at most 2 distinct labels (paper's
  // pathological non-IID protocol: 1000/20 = 50 samples per client, 100 per
  // label -> contiguous slices touch <= 2 labels).
  for (const auto& shard : p.client_indices) {
    std::set<int> classes;
    for (std::size_t idx : shard) classes.insert(labels[idx]);
    EXPECT_LE(classes.size(), 2u);
  }
}

TEST(LabelSortedPartition, Validation) {
  const auto labels = cyclic_labels(10, 2);
  EXPECT_THROW(label_sorted_partition(labels, 0), std::invalid_argument);
  EXPECT_THROW(label_sorted_partition(labels, 11), std::invalid_argument);
}

TEST(ShardedPartition, TwoShardsPerClientGivesFewClasses) {
  util::Rng rng(1);
  const auto labels = cyclic_labels(1000, 10);
  const Partition p = sharded_partition(labels, 50, 2, rng);
  validate_partition(p, 1000);
  EXPECT_EQ(p.total_samples(), 1000u);
  std::size_t total_classes = 0;
  for (const auto& shard : p.client_indices) {
    std::set<int> classes;
    for (std::size_t idx : shard) classes.insert(labels[idx]);
    EXPECT_LE(classes.size(), 4u);  // 2 shards -> at most 4 boundary classes
    total_classes += classes.size();
  }
  // On average clients see far fewer classes than 10.
  EXPECT_LT(static_cast<double>(total_classes) / 50.0, 4.0);
}

TEST(ShardedPartition, Validation) {
  util::Rng rng(1);
  const auto labels = cyclic_labels(10, 2);
  EXPECT_THROW(sharded_partition(labels, 0, 2, rng), std::invalid_argument);
  EXPECT_THROW(sharded_partition(labels, 10, 2, rng), std::invalid_argument);
}

TEST(IidPartition, RoughlyUniformClassMix) {
  util::Rng rng(2);
  const auto labels = cyclic_labels(2000, 4);
  const Partition p = iid_partition(2000, 10, rng);
  validate_partition(p, 2000);
  for (const auto& shard : p.client_indices) {
    std::set<int> classes;
    for (std::size_t idx : shard) classes.insert(labels[idx]);
    EXPECT_EQ(classes.size(), 4u);  // every client sees every class
  }
}

TEST(RandomSizedPartition, RespectsBoundsAndConserves) {
  util::Rng rng(3);
  const Partition p = random_sized_partition(2000, 15, 10, 200, rng);
  validate_partition(p, 2000);
  EXPECT_EQ(p.clients(), 15u);
  for (const auto& shard : p.client_indices) {
    EXPECT_GE(shard.size(), 10u);
    EXPECT_LE(shard.size(), 200u);
  }
  // Sizes vary (not all equal).
  std::set<std::size_t> sizes;
  for (const auto& shard : p.client_indices) sizes.insert(shard.size());
  EXPECT_GT(sizes.size(), 3u);
}

TEST(RandomSizedPartition, Validation) {
  util::Rng rng(4);
  EXPECT_THROW(random_sized_partition(100, 0, 1, 10, rng),
               std::invalid_argument);
  EXPECT_THROW(random_sized_partition(100, 10, 20, 30, rng),
               std::invalid_argument);  // 10*20 > 100
  EXPECT_THROW(random_sized_partition(100, 5, 10, 5, rng),
               std::invalid_argument);  // max < min
}

TEST(ValidatePartition, CatchesDuplicatesAndOutOfRange) {
  Partition dup;
  dup.client_indices = {{0, 1}, {1, 2}};
  EXPECT_THROW(validate_partition(dup, 3), std::logic_error);
  Partition oob;
  oob.client_indices = {{0, 5}};
  EXPECT_THROW(validate_partition(oob, 3), std::logic_error);
  Partition ok;
  ok.client_indices = {{0, 2}, {1}};
  EXPECT_NO_THROW(validate_partition(ok, 3));
}

TEST(Batcher, EpochCoversShardOnce) {
  util::Rng rng(5);
  std::vector<std::size_t> shard = {5, 9, 2, 7, 11, 3, 8};
  Batcher batcher(shard, 3);
  EXPECT_EQ(batcher.batches_per_epoch(), 3u);
  const auto batches = batcher.epoch(rng);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].size(), 3u);
  EXPECT_EQ(batches[2].size(), 1u);
  std::multiset<std::size_t> seen;
  for (const auto& b : batches) seen.insert(b.begin(), b.end());
  EXPECT_EQ(seen, std::multiset<std::size_t>(shard.begin(), shard.end()));
}

TEST(Batcher, ShufflesBetweenEpochs) {
  util::Rng rng(6);
  std::vector<std::size_t> shard(100);
  std::iota(shard.begin(), shard.end(), 0);
  Batcher batcher(shard, 100);
  const auto e1 = batcher.epoch(rng);
  const auto e2 = batcher.epoch(rng);
  EXPECT_NE(e1[0], e2[0]);
}

TEST(Batcher, Validation) {
  std::vector<std::size_t> shard = {1};
  EXPECT_THROW(Batcher(shard, 0), std::invalid_argument);
  EXPECT_THROW(Batcher(std::vector<std::size_t>{}, 2), std::invalid_argument);
}

TEST(DenseDataset, GatherAndValidation) {
  DenseDataset ds;
  ds.x = tensor::Matrix(3, 2, {1, 2, 3, 4, 5, 6});
  ds.y = {7, 8, 9};
  ds.validate();
  tensor::Matrix bx;
  std::vector<int> by;
  std::vector<std::size_t> idx = {2, 0};
  ds.gather(idx, bx, by);
  EXPECT_FLOAT_EQ(bx.at(0, 0), 5.0f);
  EXPECT_EQ(by[0], 9);
  EXPECT_EQ(by[1], 7);
  std::vector<std::size_t> bad = {3};
  EXPECT_THROW(ds.gather(bad, bx, by), std::out_of_range);
  ds.y.pop_back();
  EXPECT_THROW(ds.validate(), std::invalid_argument);
}

TEST(SequenceDataset, GatherAndValidation) {
  SequenceDataset ds;
  ds.seq_len = 2;
  ds.vocab = 10;
  ds.tokens = {1, 2, 3, 4, 5, 6};
  ds.next_token = {7, 8, 9};
  ds.validate();
  nn::SeqBatch bx;
  std::vector<int> by;
  std::vector<std::size_t> idx = {1};
  ds.gather(idx, bx, by);
  EXPECT_EQ(bx.tokens, (std::vector<int>{3, 4}));
  EXPECT_EQ(by[0], 8);
  ds.tokens.push_back(99);
  EXPECT_THROW(ds.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace cmfl::data
