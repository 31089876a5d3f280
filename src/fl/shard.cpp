#include "fl/shard.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

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

ShardedAggregator::ShardedAggregator(std::size_t dim,
                                     const ShardOptions& options)
    : dim_(dim), ranges_(shard_partition(dim, options.shards)) {
  shards_.resize(options.shards);
  // Shard 0 has no worker: the coordinating thread runs its jobs.
  threads_.reserve(options.shards - 1);
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    threads_.emplace_back([this, &shard] { worker(shard); });
  }
}

ShardedAggregator::~ShardedAggregator() {
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    std::lock_guard lock(shard.mu);
    shard.stop = true;
    shard.cv.notify_all();
  }
  for (auto& t : threads_) t.join();
}

void ShardedAggregator::worker(Shard& shard) {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(shard.mu);
      shard.cv.wait(lock, [&] { return shard.stop || !shard.jobs.empty(); });
      if (shard.jobs.empty()) return;  // stop requested and queue drained
      job = std::move(shard.jobs.front());
      shard.jobs.pop_front();
    }
    job();
  }
}

void ShardedAggregator::enqueue(std::size_t shard_index,
                                std::function<void()> fn) {
  Shard& shard = shards_[shard_index];
  {
    std::lock_guard lock(shard.mu);
    shard.jobs.push_back(std::move(fn));
  }
  if (shard_index != 0) {
    shard.cv.notify_one();
    return;
  }
  std::lock_guard lock(done_mu_);
  shard_zero_pending_ = true;
  done_cv_.notify_all();
}

void ShardedAggregator::run_shard_zero() {
  Shard& shard = shards_.front();
  for (;;) {
    std::function<void()> job;
    {
      std::lock_guard lock(shard.mu);
      if (shard.jobs.empty()) return;
      job = std::move(shard.jobs.front());
      shard.jobs.pop_front();
    }
    job();
  }
}

void ShardedAggregator::begin_batch(std::size_t capacity) {
  std::lock_guard lock(done_mu_);
  if (completed_ != submitted_) {
    throw std::logic_error("ShardedAggregator: begin_batch with in-flight jobs");
  }
  results_.assign(capacity, UploadResult{});
  submitted_ = 0;
  completed_ = 0;
}

void ShardedAggregator::submit(std::size_t index, std::uint64_t wire_bytes,
                               UploadJob job) {
  {
    std::lock_guard lock(done_mu_);
    if (index >= results_.size()) {
      throw std::invalid_argument(
          "ShardedAggregator: submit index beyond batch capacity");
    }
    ++submitted_;
  }
  const std::size_t s = index % shards_.size();
  Shard& shard = shards_[s];
  enqueue(s, [this, &shard, index, wire_bytes, job = std::move(job)] {
    UploadResult r;
    try {
      r = job();
    } catch (...) {
      r.error = std::current_exception();
    }
    shard.stats.uploads += 1;
    shard.stats.bytes += wire_bytes;
    results_[index] = std::move(r);
    {
      std::lock_guard lock(done_mu_);
      ++completed_;
    }
    done_cv_.notify_all();
  });
}

void ShardedAggregator::submit_update(std::size_t index,
                                      std::span<const float> update,
                                      const tensor::SignPack* estimate,
                                      std::uint64_t wire_bytes) {
  submit(index, wire_bytes, [update, estimate] {
    UploadResult r;
    r.scalars.finite = update_all_finite(update);
    r.scalars.norm = update_l2_norm(update);
    if (estimate != nullptr) {
      r.sign_matches = tensor::count_sign_matches(update, *estimate);
    }
    return r;
  });
}

std::vector<ShardedAggregator::UploadResult> ShardedAggregator::collect(
    std::size_t count) {
  std::unique_lock lock(done_mu_);
  if (count != submitted_) {
    throw std::logic_error("ShardedAggregator: collect count != submitted");
  }
  while (completed_ != submitted_) {
    shard_zero_pending_ = false;
    lock.unlock();
    run_shard_zero();
    lock.lock();
    done_cv_.wait(lock, [&] {
      return completed_ == submitted_ || shard_zero_pending_;
    });
  }
  std::vector<UploadResult> out(
      std::make_move_iterator(results_.begin()),
      std::make_move_iterator(results_.begin() +
                              static_cast<std::ptrdiff_t>(count)));
  results_.clear();
  submitted_ = 0;
  completed_ = 0;
  return out;
}

void ShardedAggregator::run_on_all_shards(
    const std::function<void(std::size_t)>& fn) {
  const std::size_t n = shards_.size();
  std::vector<std::exception_ptr> errors(n);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining = n;
  // Shard 0 last: the workers start on their slices while this thread
  // runs shard 0's.
  for (std::size_t s = n; s-- > 0;) {
    enqueue(s, [&, s] {
      try {
        fn(s);
      } catch (...) {
        errors[s] = std::current_exception();
      }
      shards_[s].stats.range_passes += 1;
      {
        // Notify while holding the lock: mu/cv/remaining live on the
        // coordinator's stack, and an unlocked notify could run after the
        // coordinator saw remaining == 0 and destroyed them.
        std::lock_guard lock(mu);
        --remaining;
        cv.notify_all();
      }
    });
  }
  run_shard_zero();
  std::unique_lock lock(mu);
  cv.wait(lock, [&] { return remaining == 0; });
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
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
  run_on_all_shards([&](std::size_t s) {
    aggregate_updates_range(rule, updates, weights, options, norms, out,
                            ranges_[s].lo, ranges_[s].hi);
  });
}

std::vector<ShardStats> ShardedAggregator::stats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard.stats);
  return out;
}

std::vector<std::uint64_t> ShardedAggregator::stats_words() const {
  std::vector<std::uint64_t> words;
  words.reserve(3 * shards_.size());
  for (const auto& shard : shards_) {
    words.push_back(shard.stats.uploads);
    words.push_back(shard.stats.range_passes);
    words.push_back(shard.stats.bytes);
  }
  return words;
}

void ShardedAggregator::restore_stats_words(
    std::span<const std::uint64_t> words) {
  if (words.size() != 3 * shards_.size()) {
    throw std::invalid_argument(
        "ShardedAggregator: shard stats word count mismatch (" +
        std::to_string(words.size()) + " for " +
        std::to_string(shards_.size()) + " shards)");
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].stats.uploads = words[3 * s];
    shards_[s].stats.range_passes = words[3 * s + 1];
    shards_[s].stats.bytes = words[3 * s + 2];
  }
}

}  // namespace cmfl::fl
