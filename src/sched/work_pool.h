// Work-stealing assignment pool for client training jobs.
//
// The previous cohort walk dealt each worker thread a fixed contiguous
// slice of the cohort (ThreadPool::parallel_for).  With a population's
// log-normal speed spread, one slow virtual client then idles an entire
// thread's remaining slice while the other workers finish and wait.  This
// pool keeps the fixed contiguous deal as the *initial* assignment — the
// common case touches only the owner's own slot — but lets a worker that
// drains its slice steal the back half of a neighbor's remaining slice
// (scanning rightward from itself), so stragglers cost their own job, not
// their whole slice.
//
// The shape follows the classic parameter-server WorkloadPool: per-worker
// mutex-protected {lo, hi} ranges (no lock-free deque needed — the lock is
// uncontended except at steal time), owner pops from the front, thieves
// steal half from the back.  Determinism: jobs are independent (each client
// owns its RNG stream) and every index runs exactly once, so results are
// identical to the serial loop regardless of which thread ran what; only
// the steals() counter is timing-dependent (a process-lifetime observation,
// reported but never checkpointed — DESIGN.md §17).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cmfl::sched {

class WorkStealingPool {
 public:
  /// Spawns workers so that run() executes on `threads` threads total
  /// (including the calling thread).  0 = hardware concurrency.
  explicit WorkStealingPool(std::size_t threads = 0);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Executing threads per run(), including the caller.
  std::size_t threads() const noexcept { return slots_.size(); }

  /// Runs fn(i) exactly once for every i in [0, n), dealing contiguous
  /// index ranges to all threads and work-stealing the stragglers' tails.
  /// Blocks until every index completed; the caller participates.  The
  /// first exception thrown by any job is rethrown here after the barrier
  /// (remaining jobs still run).  Not reentrant.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Total successful steal events since construction (timing-dependent).
  std::uint64_t steals() const noexcept;

 private:
  /// One thread's dealt range.  Padded: owner pops lo on every job while
  /// thieves scan hi — a shared cache line would put the pop on the hot
  /// path of every other worker's steal scan.
  struct alignas(64) Slot {
    std::mutex mu;
    std::size_t lo = 0;
    std::size_t hi = 0;
  };

  void work(std::size_t self, const std::function<void(std::size_t)>& job);
  void worker_loop(std::size_t self);

  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::size_t remaining_ = 0;  // jobs not yet completed in this run
  std::size_t active_ = 0;     // workers currently inside work()
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::exception_ptr error_;

  std::atomic<std::uint64_t> steals_{0};
};

}  // namespace cmfl::sched
