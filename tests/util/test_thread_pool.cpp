#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace lad {
namespace {

TEST(ThreadPool, RunsEveryIterationExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HandlesEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, HandlesMoreThreadsThanWork) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for(0, 3, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, SingleWorkerStillCompletes) {
  ThreadPool pool(1);
  std::atomic<long long> sum{0};
  pool.parallel_for(0, 100, [&](std::size_t i) { sum += static_cast<long long>(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 42) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for(0, 10, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 50);
}

TEST(ThreadPool, ZeroRequestsDefaultsToHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPool, DynamicChunkingSurvivesImbalancedWork) {
  // One pathological item 1000x heavier than the rest: the atomic-cursor
  // grab means the other workers drain the remaining items instead of
  // idling behind a static partition.  Correctness check: every item
  // still runs exactly once.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) {
    if (i == 0) {
      volatile double sink = 0;
      for (int k = 0; k < 2000000; ++k) sink = sink + 1.0;
    }
    ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // The scenario runner nests loops on the shared pool (jobs -> pipeline
  // passes).  The caller participates in its own loop, so progress is
  // guaranteed even when every worker is parked inside the outer level.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(0, 4, [&](std::size_t) {
    pool.parallel_for(0, 8, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, EnsureWorkersGrowsButNeverShrinks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  pool.ensure_workers(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  pool.ensure_workers(2);  // no-op: never shrinks
  EXPECT_EQ(pool.num_threads(), 3u);
  std::atomic<int> count{0};
  pool.parallel_for(0, 100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SharedPoolIsAProcessSingleton) {
  ThreadPool& a = ThreadPool::shared();
  ThreadPool& b = ThreadPool::shared();
  EXPECT_EQ(&a, &b);
  std::atomic<int> count{0};
  a.ensure_workers(2);
  a.parallel_for(0, 10, [&](std::size_t) { ++count; }, 2);
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, MaxWorkersCapsParticipationNotCoverage) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; }, 2);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForShared, OneThreadOrOneItemRunsInlineOnTheCaller) {
  // A serial run must never reach the pool: every iteration runs on the
  // calling thread, in order.
  const std::thread::id caller = std::this_thread::get_id();
  for (const auto& [n, threads] :
       {std::pair<std::size_t, std::size_t>{50, 1}, {50, 0}, {1, 4}}) {
    std::vector<std::size_t> order;
    bool off_caller = false;
    parallel_for_shared(
        n,
        [&](std::size_t i) {
          off_caller |= std::this_thread::get_id() != caller;
          order.push_back(i);
        },
        threads);
    std::vector<std::size_t> expected(n);
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    EXPECT_EQ(order, expected) << "n " << n << ", threads " << threads;
    EXPECT_FALSE(off_caller) << "n " << n << ", threads " << threads;
  }
}

TEST(ParallelForShared, WideLoopsRunEveryItemOnceOnTheSharedPool) {
  std::vector<std::atomic<int>> hits(37);
  parallel_for_shared(hits.size(), [&](std::size_t i) { ++hits[i]; }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GE(ThreadPool::shared().num_threads(), 3u);
}

TEST(ParallelForShared, EmptyIsANoop) {
  bool called = false;
  parallel_for_shared(0, [&](std::size_t) { called = true; }, 4);
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace lad
