#include "util/work_pool.h"

#include <algorithm>
#include <limits>

namespace cmfl::util {

namespace {
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
}

WorkStealingPool::WorkStealingPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  slots_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    slots_.push_back(std::make_unique<Slot>());
  }
  workers_.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
    start_cv_.notify_all();
  }
  for (auto& w : workers_) w.join();
}

void WorkStealingPool::worker_loop(std::size_t self) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    {
      std::unique_lock lock(mu_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      // A worker that wakes after its run finished finds job_ cleared and
      // sits the run out: joining with a stale (null) job would let it pop
      // indices the next run deals into its slot.
      job = job_;
      if (job == nullptr) continue;
      ++active_;
    }
    work(self, *job);
    {
      std::lock_guard lock(mu_);
      --active_;
    }
    done_cv_.notify_all();
  }
}

void WorkStealingPool::work(std::size_t self,
                            const std::function<void(std::size_t)>& job) {
  Slot& own = *slots_[self];
  const std::size_t nslots = slots_.size();
  for (;;) {
    std::size_t i = kNone;
    {
      std::lock_guard lock(own.mu);
      if (own.lo < own.hi) i = own.lo++;
    }
    if (i == kNone) {
      // Own slice drained: steal the back half of the first victim (scanning
      // from our right neighbor) that still holds work.  Locking per victim
      // keeps the scan race-free; misses are cheap because a drained run
      // exits after one full scan.
      bool stole = false;
      for (std::size_t d = 1; d < nslots && !stole; ++d) {
        Slot& victim = *slots_[(self + d) % nslots];
        std::size_t lo = 0, hi = 0;
        {
          std::lock_guard lock(victim.mu);
          const std::size_t r = victim.hi - victim.lo;
          if (r == 0) continue;
          const std::size_t take = (r + 1) / 2;
          lo = victim.hi - take;
          hi = victim.hi;
          victim.hi = lo;
        }
        {
          std::lock_guard lock(own.mu);
          own.lo = lo;
          own.hi = hi;
        }
        steals_.fetch_add(1, std::memory_order_relaxed);
        stole = true;
      }
      if (!stole) return;  // every remaining job is already executing
      continue;
    }
    try {
      job(i);
    } catch (...) {
      std::lock_guard lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
    {
      std::lock_guard lock(mu_);
      --remaining_;
    }
    done_cv_.notify_all();
  }
}

void WorkStealingPool::run(std::size_t n,
                           const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  {
    std::unique_lock lock(mu_);
    if (job_ != nullptr) {
      // Busy: a nested call from one of this run's jobs, or a second
      // caller.  Waiting could deadlock the former, so both run inline.
      lock.unlock();
      std::exception_ptr first;
      for (std::size_t i = 0; i < n; ++i) {
        try {
          fn(i);
        } catch (...) {
          if (!first) first = std::current_exception();
        }
      }
      if (first) std::rethrow_exception(first);
      return;
    }
    // Initial deal: contiguous near-equal slices, caller owns slot 0.  Slot
    // writes happen under each slot's mutex so workers (which also lock
    // before reading) observe them without data races.
    const std::size_t nslots = slots_.size();
    const std::size_t chunk = n / nslots;
    const std::size_t extra = n % nslots;
    std::size_t next = 0;
    for (std::size_t t = 0; t < nslots; ++t) {
      const std::size_t len = chunk + (t < extra ? 1 : 0);
      std::lock_guard slot_lock(slots_[t]->mu);
      slots_[t]->lo = next;
      slots_[t]->hi = next + len;
      next += len;
    }
    job_ = &fn;
    remaining_ = n;
    error_ = nullptr;
    ++generation_;
    start_cv_.notify_all();
  }

  work(0, fn);

  std::exception_ptr error;
  {
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [&] { return remaining_ == 0 && active_ == 0; });
    job_ = nullptr;
    error = error_;
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

std::uint64_t WorkStealingPool::steals() const noexcept {
  return steals_.load(std::memory_order_relaxed);
}

}  // namespace cmfl::util
