#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <vector>

namespace cmfl::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&] { counter.fetch_add(1); });
    }
  }  // the destructor completes pending tasks before joining
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 42) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForMoreItemsThanThreads) {
  ThreadPool pool(2);
  std::atomic<long long> sum{0};
  const std::size_t n = 10000;
  pool.parallel_for(n, [&](std::size_t i) {
    sum.fetch_add(static_cast<long long>(i));
  });
  EXPECT_EQ(sum.load(), static_cast<long long>(n * (n - 1) / 2));
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> counter{0};
    pool.parallel_for(50, [&](std::size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), 50);
  }
}

// Regression: parallel_for used to wait for the whole pool to go idle, so an
// unrelated blocked submit() extended (or hung) the wait.
// Completion is now tracked per call; parallel_for must return while the
// unrelated task is still blocked.
TEST(ThreadPool, ParallelForUnaffectedByUnrelatedBlockedSubmit) {
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<bool> blocker_started{false};
  pool.submit([&, gate] {
    blocker_started.store(true);
    gate.wait();
  });
  while (!blocker_started.load()) std::this_thread::yield();

  std::atomic<int> counter{0};
  pool.parallel_for(100, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);  // returned while the blocker still holds

  release.set_value();
}

// Regression: nested parallel_for from a worker used to deadlock (the inner
// call waited for pool idleness that could never arrive).  The caller now
// participates in its own work, so the nest always drains.
TEST(ThreadPool, NestedParallelForCompletes) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(16, [&](std::size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 4 * 16);
}

TEST(ThreadPool, ParallelForFromSubmittedTaskCompletes) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);  // single worker: only caller participation saves this
    pool.submit([&] {
      pool.parallel_for(32, [&](std::size_t) { counter.fetch_add(1); });
    });
  }  // the destructor completes the submitted task before joining
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, SizeReflectsWorkerCount) {
  ThreadPool pool(5);
  EXPECT_EQ(pool.size(), 5u);
}

TEST(ThreadPool, DefaultSizePositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

}  // namespace
}  // namespace cmfl::util
