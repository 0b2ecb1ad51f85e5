/// \file thread_pool_test.cc

#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

namespace lmfao {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Shutdown();  // Drains every accepted task.
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SingleThreadStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) pool.Submit([&count] { ++count; });
  pool.Shutdown();
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, TasksCanSubmitTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&] {
    for (int i = 0; i < 5; ++i) {
      pool.Submit([&count] { ++count; });
    }
  });
  pool.Shutdown();
  EXPECT_EQ(count.load(), 5);
}

TEST(ThreadPoolTest, ParallelWorkActuallyOverlaps) {
  ThreadPool pool(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&] {
      const int now = concurrent.fetch_add(1) + 1;
      int prev = max_concurrent.load();
      while (prev < now && !max_concurrent.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      concurrent.fetch_sub(1);
    });
  }
  pool.Shutdown();
  EXPECT_GT(max_concurrent.load(), 1);
}

/// Shutdown's contract: every task accepted before shutdown runs to
/// completion before the destructor returns — queued tasks are drained,
/// never dropped.
TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  constexpr int kTasks = 200;
  {
    ThreadPool pool(2);
    // A slow head task piles the rest up in the queue, so destruction
    // races a deep backlog.
    pool.Submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    for (int i = 0; i < kTasks; ++i) {
      ASSERT_TRUE(pool.Submit([&count] { count.fetch_add(1); }));
    }
  }  // ~ThreadPool: drain + join.
  EXPECT_EQ(count.load(), kTasks);
}

/// Continuations submitted by a draining task (from worker context) are
/// accepted and run; the whole in-flight task graph completes.
TEST(ThreadPoolTest, ShutdownDrainsWorkerSubmittedContinuations) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    pool.Submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      // By now Shutdown may already be in progress; these must still run.
      for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(pool.Submit([&count] { count.fetch_add(1); }));
      }
    });
  }
  EXPECT_EQ(count.load(), 10);
}

/// An external Submit racing (or following) shutdown is visibly rejected
/// instead of being enqueued into a pool whose workers may have exited.
TEST(ThreadPoolTest, SubmitAfterShutdownIsRejected) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  ASSERT_TRUE(pool.Submit([&count] { count.fetch_add(1); }));
  pool.Shutdown();
  EXPECT_EQ(count.load(), 1);
  EXPECT_FALSE(pool.Submit([&count] { count.fetch_add(1); }));
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Shutdown();
  pool.Shutdown();  // Second call must be a no-op, not a crash or hang.
  EXPECT_EQ(count.load(), 1);
}

/// ParallelForShared completes every index even when the pool rejects
/// helper submissions (shutdown in progress): the caller participates.
TEST(ParallelForSharedTest, CompletesAgainstShutDownPool) {
  ThreadPool pool(4);
  pool.Shutdown();
  std::vector<int> hits(64, 0);
  ParallelForShared(&pool, hits.size(), [&](size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForSharedTest, ZeroIterations) {
  ThreadPool pool(2);
  ParallelForShared(&pool, 0, [](size_t) { FAIL(); });
  SUCCEED();
}

TEST(ParallelForSharedTest, CoversAllIndexes) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  ParallelForShared(&pool, hits.size(),
                    [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForSharedTest, InlineWithoutPool) {
  std::vector<int> hits(10, 0);
  ParallelForShared(nullptr, hits.size(), [&](size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

/// The hybrid scheduler's shape: every pool worker blocks in a nested
/// ParallelForShared at once. The caller participates in its own indices,
/// so this must complete even though no worker is free to run the queued
/// helpers.
TEST(ParallelForSharedTest, SafeFromInsidePoolWorkers) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::atomic<int> outer_done{0};
  std::mutex mu;
  std::condition_variable cv;
  for (int t = 0; t < 4; ++t) {
    pool.Submit([&] {
      ParallelForShared(&pool, 8, [&](size_t) { total.fetch_add(1); });
      if (outer_done.fetch_add(1) + 1 == 4) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return outer_done.load() == 4; }));
  EXPECT_EQ(total.load(), 32);
}

}  // namespace
}  // namespace lmfao
