// Fixed-size thread pool with a parallel-for helper.
//
// The federated simulation trains many independent clients per iteration;
// parallel_for partitions the client index range across workers.  Each client
// draws from its own Rng stream, so the parallel schedule never changes
// results relative to serial execution.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace cmfl::util {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (defaults to hardware concurrency, at
  /// least 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, n), blocking until all complete.  Exceptions
  /// thrown by fn propagate to the caller (first one wins).  Completion is
  /// tracked per call, and the calling thread participates in the work, so
  /// concurrent unrelated submit()s do not extend the wait and nested
  /// parallel_for from a worker cannot deadlock.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  bool stop_ = false;
};

}  // namespace cmfl::util
