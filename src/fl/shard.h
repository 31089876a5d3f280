// Sharded parameter-server aggregation pipeline — the only aggregation path
// of every round runtime (fl::RoundCommitter drives it).
//
// The flat parameter vector is range-partitioned across S aggregator
// shards, and a round's uploads are ingested in two fork-join passes, each
// one util::WorkStealingPool::run(S, …) over the shards:
//
//   * upload-parallel scalar pass — screen() hands upload i to shard
//     (i mod S), which computes the structural scalars screening needs:
//     finiteness and the serial double-accumulation L2 norm;
//   * range-parallel apply pass — aggregate() fans the per-coordinate work
//     of aggregate_updates out as one job per shard over that shard's
//     [lo, hi) slice of the output vector.
//
// The pool has S threads, the caller included, so S shards start S − 1
// threads; a one-shard aggregator has no pool and runs both passes as
// plain loops on the caller, with no thread hand-off.
//
// Determinism contract (DESIGN.md §17): results are bit-identical to the
// serial reference (aggregate_updates and the span overload of
// UpdateValidator::screen_round) at any shard count and any thread
// interleaving.
//   - Scalar results are stored by upload index and returned in index
//     order, so screening sees exactly the sequence the serial path saw;
//     each scalar is computed by the exact serial helper on the full vector
//     (full-vector reductions are never range-split — double addition is not
//     associative).
//   - The apply pass writes disjoint ranges with kernels whose per-element
//     op sequence depends only on the element index, so the concatenation of
//     shard outputs equals the full-vector call byte-for-byte
//     (aggregate_updates_range; the clipped rule's cross-upload plan runs
//     once on the coordinator from the scalar-pass norms).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fl/robust_agg.h"
#include "util/work_pool.h"

namespace cmfl::fl {

/// Sharding knobs, embedded in SimulationOptions (and through it in
/// ClusterOptions).
struct ShardOptions {
  /// Aggregator shard count.  The round runtimes treat 0 (the default)
  /// like 1: one shard, served by the coordinating thread.  S >= 2 adds
  /// S − 1 shard worker threads; trajectories are bit-identical at any S.
  /// ShardedAggregator itself requires S >= 1.
  std::size_t shards = 0;
};

/// Half-open slice [lo, hi) of the flat parameter vector owned by one shard.
struct ShardRange {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::size_t size() const noexcept { return hi - lo; }
};

/// Range-partitions [0, dim) into `shards` contiguous slices whose interior
/// boundaries are multiples of 64 floats, so every slice starts on a
/// SignPack word boundary and AVX2 blocks split cleanly.  Each ideal cut
/// dim·(s+1)/S is rounded down to the previous 64-float boundary, so slice
/// sizes differ by at most 128 elements (two rounding errors); trailing
/// shards may be empty when dim < 64·shards.  Throws std::invalid_argument
/// when shards == 0.
std::vector<ShardRange> shard_partition(std::size_t dim, std::size_t shards);

/// Per-shard ingest counters, checkpointed with the scheduler state so a
/// resumed run reports the same totals as an uninterrupted one.
struct ShardStats {
  std::uint64_t uploads = 0;      ///< scalar-pass jobs this shard processed
  std::uint64_t range_passes = 0; ///< range-apply jobs this shard processed
  std::uint64_t bytes = 0;        ///< wire bytes of uploads this shard ingested

  bool operator==(const ShardStats&) const = default;
};

/// S range-partitioned aggregator shards on an S-thread pool (none at
/// S = 1).  Driven by one coordinating thread at a time.
class ShardedAggregator {
 public:
  /// Starts `options.shards` − 1 pool threads (options.shards >= 1
  /// required; throws std::invalid_argument on 0) over a dim-sized
  /// parameter vector.
  ShardedAggregator(std::size_t dim, const ShardOptions& options);

  std::size_t shards() const noexcept { return stats_.size(); }
  std::size_t dim() const noexcept { return dim_; }

  /// Scalar pass: the screening scalars of every upload, in index order,
  /// via the exact serial helpers.  Upload i runs on shard (i mod S), which
  /// counts it and its `wire_bytes[i]`.
  std::vector<UpdateValidator::UploadScalars> screen(
      std::span<const std::span<const float>> updates,
      std::span<const std::uint64_t> wire_bytes);

  /// Range-parallel aggregate_updates: each shard applies its slice via
  /// aggregate_updates_range, bit-identical to the serial call.  `norms`
  /// is required for kNormClippedMean (full-vector norms in update order —
  /// exactly what the scalar pass produced); pass empty otherwise.  Blocks
  /// until all shards finish; rethrows the first shard error.
  void aggregate(Aggregation rule,
                 std::span<const std::span<const float>> updates,
                 std::span<const float> weights,
                 const RobustAggOptions& options, std::span<const double> norms,
                 std::span<float> out);

  /// Per-shard counters (quiesced read: call between rounds).
  std::vector<ShardStats> stats() const;

  /// Checkpoint encoding: [uploads, range_passes, bytes] per shard, in
  /// shard order.  restore throws std::invalid_argument on a word count
  /// that is not 3 · shards().
  std::vector<std::uint64_t> stats_words() const;
  void restore_stats_words(std::span<const std::uint64_t> words);

 private:
  std::size_t dim_;
  std::vector<ShardRange> ranges_;
  std::vector<ShardStats> stats_;  // entry s written only by shard s's job
  std::unique_ptr<util::WorkStealingPool> pool_;  // null at S = 1
};

}  // namespace cmfl::fl
