// Work-stealing fork-join pool: the library's one way to run index-parallel
// jobs.  The kernel layer's GEMM row chunks, the engine's training cohort,
// MOCHA's tasks and the sharded aggregator's two passes each own one
// instance, sized for their own use.
//
// A contiguous slice per thread is the *initial* assignment — the common
// case touches only the owner's own slot — but a thread that drains its
// slice steals the back half of a neighbor's remaining slice (scanning
// rightward from itself), so with a population's log-normal speed spread a
// straggler costs its own job, not its whole slice.
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
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cmfl::util {

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
  /// first exception thrown by any job is rethrown here after every job
  /// has run.  A run that finds the pool busy — called from one of its own
  /// jobs, or from a second thread while another run is in flight — runs
  /// its jobs on the calling thread in index order instead.
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
  const std::function<void(std::size_t)>* job_ = nullptr;  // set while busy
  std::exception_ptr error_;

  std::atomic<std::uint64_t> steals_{0};
};

}  // namespace cmfl::util
