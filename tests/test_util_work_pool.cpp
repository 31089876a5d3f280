// util::WorkStealingPool: exactly-once execution at every (n, threads)
// shape, forced steals under a blocked straggler, error propagation through
// the barrier, and inline runs when the pool is busy.  Also the kernel
// layer's dispatch onto its pool: concurrent and nested GEMM dispatches
// match the single-threaded result bit for bit.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/matrix.h"
#include "util/rng.h"
#include "util/work_pool.h"

namespace cmfl::util {
namespace {

TEST(WorkStealingPool, RunsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
    WorkStealingPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    for (const std::size_t n : {0u, 1u, 3u, 64u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      pool.run(n, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "threads " << threads << " n " << n
                                     << " index " << i;
      }
    }
  }
}

TEST(WorkStealingPool, PoolIsReusableAcrossRuns) {
  WorkStealingPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.run(50, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 50u * 49u / 2u);
  }
}

TEST(WorkStealingPool, StragglerTailIsStolen) {
  // Two workers, 100 jobs: the caller owns [0, 50), the worker [50, 100).
  // Job 0 blocks until every *other* job has completed — the caller can
  // never run [1, 50) itself, so the worker must steal that tail for run()
  // to return at all.  Termination of this test is therefore itself the
  // proof of stealing; the counter must agree.
  WorkStealingPool pool(2);
  const std::uint64_t steals_before = pool.steals();
  std::mutex mu;
  std::condition_variable cv;
  std::size_t others_done = 0;
  pool.run(100, [&](std::size_t i) {
    if (i == 0) {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return others_done == 99; });
      return;
    }
    std::lock_guard lock(mu);
    ++others_done;
    cv.notify_all();
  });
  EXPECT_GE(pool.steals() - steals_before, 1u);
}

TEST(WorkStealingPool, FirstErrorIsRethrownAfterAllJobsRan) {
  WorkStealingPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  EXPECT_THROW(
      pool.run(64,
               [&](std::size_t i) {
                 hits[i].fetch_add(1, std::memory_order_relaxed);
                 if (i % 13 == 5) throw std::runtime_error("job failed");
               }),
      std::runtime_error);
  // The barrier completes the whole batch before rethrowing.
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // The pool recovers: the next run is clean.
  std::atomic<std::size_t> count{0};
  pool.run(10, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 10u);
}

/// Runs fn(i) for i in [0, n) on `pool`, recording the order and threads
/// the indices ran on; true when some job threw (the rethrow is checked
/// after every index ran).
struct InlineRun {
  std::vector<std::size_t> order;
  std::vector<std::thread::id> ran_on;
  bool threw = false;
};

InlineRun run_recording(WorkStealingPool& pool, std::size_t n,
                        std::size_t failing_index) {
  InlineRun r;
  try {
    pool.run(n, [&](std::size_t i) {
      r.order.push_back(i);
      r.ran_on.push_back(std::this_thread::get_id());
      if (i == failing_index) throw std::runtime_error("job failed");
    });
  } catch (const std::runtime_error&) {
    r.threw = true;
  }
  return r;
}

void expect_inline_in_index_order(const InlineRun& r, std::size_t n,
                                  std::thread::id caller) {
  ASSERT_EQ(r.order.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(r.order[i], i);
    EXPECT_EQ(r.ran_on[i], caller) << "index " << i;
  }
  EXPECT_TRUE(r.threw);
}

TEST(WorkStealingPool, NestedAndConcurrentRunsCompleteInline) {
  // A job that calls run on its own pool: the inner run finds the pool
  // busy and runs every index once, on the job's thread, in index order,
  // rethrowing its job's error only after the last index ran.
  {
    WorkStealingPool pool(2);
    std::mutex mu;
    std::vector<InlineRun> inner(4);
    std::vector<std::thread::id> outer_on(4);
    pool.run(4, [&](std::size_t o) {
      InlineRun r = run_recording(pool, 16, /*failing_index=*/5);
      std::lock_guard lock(mu);
      inner[o] = std::move(r);
      outer_on[o] = std::this_thread::get_id();
    });
    for (std::size_t o = 0; o < 4; ++o) {
      SCOPED_TRACE("outer job " + std::to_string(o));
      expect_inline_in_index_order(inner[o], 16, outer_on[o]);
    }
  }
  // A second thread calling run while the first run is in flight: job 0
  // of the first run holds the pool until the second caller is done, so
  // the second run must complete without it.
  {
    WorkStealingPool pool(2);
    std::mutex mu;
    std::condition_variable cv;
    bool first_started = false;
    bool second_done = false;
    std::vector<std::atomic<int>> hits(8);
    InlineRun second;
    std::thread::id second_id;
    std::exception_ptr second_error;
    std::thread other([&] {
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return first_started; });
      }
      second_id = std::this_thread::get_id();
      try {
        second = run_recording(pool, 12, /*failing_index=*/0);
      } catch (...) {
        second_error = std::current_exception();
      }
      std::lock_guard lock(mu);
      second_done = true;
      cv.notify_all();
    });
    pool.run(hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      if (i != 0) return;
      std::unique_lock lock(mu);
      first_started = true;
      cv.notify_all();
      cv.wait(lock, [&] { return second_done; });
    });
    other.join();
    EXPECT_FALSE(second_error);
    expect_inline_in_index_order(second, 12, second_id);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

// --- Kernel dispatch onto the kernel pool --------------------------------

/// Restores the kernel thread setting on scope exit.
struct ThreadSetting {
  explicit ThreadSetting(std::size_t n)
      : saved(tensor::kernels::max_threads()) {
    tensor::kernels::set_max_threads(n);
  }
  ~ThreadSetting() { tensor::kernels::set_max_threads(saved); }
  std::size_t saved;
};

tensor::Matrix random_matrix(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  Rng rng(seed);
  tensor::Matrix m(rows, cols);
  for (float& x : m.flat()) x = rng.uniform_f(-1.0f, 1.0f);
  return m;
}

bool same_bits(const tensor::Matrix& a, const tensor::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.size() * sizeof(float)) == 0;
}

// 192·192·128 ≈ 4.7M multiply-accumulates: above kParallelMacThreshold,
// so a matmul of these shapes dispatches to the pool.
constexpr std::size_t kM = 192, kK = 192, kN = 128;
static_assert(kM * kK * kN >= tensor::kernels::kParallelMacThreshold);

TEST(KernelPool, ConcurrentDispatchesMatchOneThread) {
  const tensor::Matrix a = random_matrix(kM, kK, 1);
  const tensor::Matrix b = random_matrix(kK, kN, 2);
  tensor::Matrix serial(kM, kN);
  {
    ThreadSetting one(1);
    tensor::matmul(a, b, serial);
  }
  ThreadSetting four(4);
  for (int rep = 0; rep < 4; ++rep) {
    std::vector<tensor::Matrix> outs(2, tensor::Matrix(kM, kN));
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < outs.size(); ++t) {
      callers.emplace_back([&, t] { tensor::matmul(a, b, outs[t]); });
    }
    for (auto& c : callers) c.join();
    for (const auto& out : outs) EXPECT_TRUE(same_bits(out, serial));
  }
}

TEST(KernelPool, NestedDispatchMatchesOneThread) {
  // Each row chunk of an outer parallel_rows runs a pool-sized matmul of
  // its own: the inner dispatch finds the pool busy and runs inline.
  const tensor::Matrix a = random_matrix(kM, kK, 3);
  const tensor::Matrix b = random_matrix(kK, kN, 4);
  constexpr std::size_t kOuter = 4;
  const auto nested = [&] {
    std::vector<tensor::Matrix> outs(kOuter, tensor::Matrix(kM, kN));
    tensor::kernels::parallel_rows(
        kOuter, tensor::kernels::kParallelMacThreshold,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t r = lo; r < hi; ++r) {
            tensor::matmul(a, b, outs[r]);
          }
        });
    return outs;
  };
  std::vector<tensor::Matrix> serial;
  {
    ThreadSetting one(1);
    serial = nested();
  }
  ThreadSetting four(4);
  const std::vector<tensor::Matrix> pooled = nested();
  for (std::size_t r = 0; r < kOuter; ++r) {
    EXPECT_TRUE(same_bits(pooled[r], serial[r])) << "row " << r;
  }
}

}  // namespace
}  // namespace cmfl::util
