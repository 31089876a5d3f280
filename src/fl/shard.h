// Sharded parameter-server aggregation pipeline — the only aggregation path
// of every round runtime (fl::RoundCommitter drives it).
//
// The flat parameter vector is range-partitioned across S aggregator
// shards, each with a finely-locked MPSC ingest queue, so an upload burst
// from an over-selected cohort is processed concurrently:
//
//   * upload-parallel scalar pass — each arriving upload is handed to shard
//     (index mod S), which decodes it (caller-supplied job) and computes
//     the structural scalars screening needs: finiteness, the serial
//     double-accumulation L2 norm, and optionally the CMFL sign-agreement
//     count against the broadcast estimate;
//   * range-parallel apply pass — aggregate() fans the per-coordinate work
//     of aggregate_updates out as one job per shard over that shard's
//     [lo, hi) slice of the output vector.
//
// Shards 1..S-1 each own a worker thread.  Shard 0 is served by the
// coordinating thread itself, which drains shard 0's queue inside
// collect() and aggregate() while the other shards' workers run — so S
// shards start S − 1 threads, and a one-shard aggregator runs the whole
// pipeline inline on the caller with no thread hand-off.
//
// Determinism contract (DESIGN.md §17): results are bit-identical to the
// serial reference (aggregate_updates and the span overload of
// UpdateValidator::screen_round) at any shard count and any thread
// interleaving.
//   - Scalar results are stored by upload index and collected in index
//     order, so screening sees exactly the sequence the serial path saw;
//     each scalar is computed by the exact serial helper on the full vector
//     (full-vector reductions are never range-split — double addition is not
//     associative).
//   - The apply pass writes disjoint ranges with kernels whose per-element
//     op sequence depends only on the element index, so the concatenation of
//     shard outputs equals the full-vector call byte-for-byte
//     (aggregate_updates_range; the clipped rule's cross-upload plan runs
//     once on the coordinator from the scalar-pass norms).
//   - Sign-agreement counts are exact integers; per-shard partials sum to
//     the full-vector count with no rounding concerns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "fl/robust_agg.h"
#include "tensor/kernels.h"

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

/// S range-partitioned aggregator shards with MPSC ingest queues: shard 0
/// served by the coordinating thread, shards 1..S-1 by worker threads.
/// collect() and aggregate() are driven by the coordinating thread (the
/// single consumer of shard 0's queue), while submissions may come from any
/// thread (multiple producers).
class ShardedAggregator {
 public:
  /// What the scalar pass produces for one upload.
  struct UploadResult {
    UpdateValidator::UploadScalars scalars;  ///< finite + full-vector L2 norm
    std::size_t sign_matches = 0;  ///< vs the estimate pack (0 when none)
    std::exception_ptr error;      ///< set when the job threw (e.g. decode)
  };

  /// Job run on a shard worker: decode/score one upload and return its
  /// scalars.  Anything it throws is captured into UploadResult::error.
  using UploadJob = std::function<UploadResult()>;

  /// Spawns `options.shards` − 1 worker threads (options.shards >= 1
  /// required; throws std::invalid_argument on 0) over a dim-sized
  /// parameter vector.
  ShardedAggregator(std::size_t dim, const ShardOptions& options);
  ~ShardedAggregator();

  ShardedAggregator(const ShardedAggregator&) = delete;
  ShardedAggregator& operator=(const ShardedAggregator&) = delete;

  std::size_t shards() const noexcept { return shards_.size(); }
  std::size_t dim() const noexcept { return dim_; }

  /// Prepares result storage for a round of up to `capacity` uploads and
  /// resets the completion counters.  Must not be called with jobs in
  /// flight (call sites sit at round boundaries, which are barriers).
  void begin_batch(std::size_t capacity);

  /// Enqueues `job` for upload `index` (< the begin_batch capacity) on
  /// shard (index mod S).  `wire_bytes` feeds that shard's byte counter.
  void submit(std::size_t index, std::uint64_t wire_bytes, UploadJob job);

  /// Convenience submit for an already-decoded update held in stable
  /// memory: scalars via the exact serial helpers, plus the sign-agreement
  /// count against `estimate` when non-null.
  void submit_update(std::size_t index, std::span<const float> update,
                     const tensor::SignPack* estimate,
                     std::uint64_t wire_bytes);

  /// Barrier: runs shard 0's jobs on the calling thread, waits until the
  /// first `count` submitted jobs of this batch completed and returns their
  /// results in index order (count must equal the number submitted since
  /// begin_batch, every one of those submit calls having returned).
  std::vector<UploadResult> collect(std::size_t count);

  /// Range-parallel aggregate_updates: each shard applies its slice via
  /// aggregate_updates_range (shard 0's on the calling thread),
  /// bit-identical to the serial call.  `norms`
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
  struct alignas(64) Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::function<void()>> jobs;
    bool stop = false;
    ShardStats stats;  // worker-owned; coordinator reads only when quiesced
  };

  void worker(Shard& shard);
  void enqueue(std::size_t shard_index, std::function<void()> fn);
  /// Runs shard 0's queued jobs on the calling thread until its queue is
  /// empty.
  void run_shard_zero();
  /// Runs one job per shard and blocks until all complete; rethrows the
  /// first error by shard index.
  void run_on_all_shards(
      const std::function<void(std::size_t shard_index)>& fn);

  std::size_t dim_;
  std::vector<ShardRange> ranges_;
  // deque: Shard is neither movable nor copyable; deque constructs in place
  // and never relocates.
  std::deque<Shard> shards_;
  std::vector<std::thread> threads_;  // shards 1..S-1

  // Scalar-pass batch state.  results_ is sized by begin_batch before any
  // submit, so workers store to disjoint, stable slots.
  std::vector<UploadResult> results_;
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
  // Set (under done_mu_) when a job lands in shard 0's queue, so a
  // coordinator waiting in collect() wakes up to run it.
  bool shard_zero_pending_ = false;
};

}  // namespace cmfl::fl
