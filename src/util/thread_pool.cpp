#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace cmfl::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
  }
  task_available_.notify_one();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Completion is tracked in call-local shared state: unrelated concurrent
  // submit()s cannot extend the wait, and because the caller claims indices itself it always makes
  // progress — a nested parallel_for from a worker completes even if every
  // other worker is busy (its queued helper tasks then find no indices left
  // and exit immediately).
  struct State {
    explicit State(std::size_t total, std::function<void(std::size_t)> f)
        : n(total), fn(std::move(f)) {}
    const std::size_t n;
    const std::function<void(std::size_t)> fn;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mutex;
    std::condition_variable all_done;
    std::exception_ptr first_error;
  };
  auto state = std::make_shared<State>(n, fn);
  auto drain = [](const std::shared_ptr<State>& st) {
    for (std::size_t i = st->next.fetch_add(1); i < st->n;
         i = st->next.fetch_add(1)) {
      try {
        st->fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(st->mutex);
        if (!st->first_error) st->first_error = std::current_exception();
      }
      if (st->done.fetch_add(1) + 1 == st->n) {
        std::lock_guard<std::mutex> lock(st->mutex);
        st->all_done.notify_all();
      }
    }
  };
  const std::size_t helpers = std::min(n - 1, workers_.size());
  for (std::size_t s = 0; s < helpers; ++s) {
    submit([state, drain] { drain(state); });
  }
  drain(state);
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->all_done.wait(lock,
                         [&] { return state->done.load() == state->n; });
    if (state->first_error) std::rethrow_exception(state->first_error);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ set and queue drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace cmfl::util
