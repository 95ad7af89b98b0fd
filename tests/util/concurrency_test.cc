// Tests for ThreadPool and ParallelFor.

#include <algorithm>
#include <atomic>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "util/parallel_for.h"
#include "util/thread_pool.h"

namespace prefcover {
namespace {

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, TasksCanSubmitTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&pool, &counter] {
    counter.fetch_add(1);
    for (int i = 0; i < 5; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 6);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, DefaultThreadCountPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

class ParallelForTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  const size_t threads = GetParam();
  ThreadPool pool(threads);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  ParallelFor(&pool, 0, kN, [&visits](size_t i) {
    visits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST_P(ParallelForTest, SubrangeHonored) {
  const size_t threads = GetParam();
  ThreadPool pool(threads);
  std::vector<std::atomic<int>> visits(100);
  ParallelFor(&pool, 10, 20, [&visits](size_t i) {
    visits[i].fetch_add(1);
  });
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(visits[i].load(), (i >= 10 && i < 20) ? 1 : 0);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelForTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(ParallelForTest, NullPoolRunsInline) {
  std::vector<int> visits(50, 0);
  ParallelFor(nullptr, 0, 50, [&visits](size_t i) { ++visits[i]; });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  ParallelFor(&pool, 5, 5, [&called](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForChunkedTest, ChunksPartitionTheRange) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> chunks;
  ParallelForChunked(&pool, 0, 103,
                     [&](size_t lo, size_t hi, size_t /*worker*/) {
                       std::lock_guard<std::mutex> lock(mu);
                       chunks.push_back({lo, hi});
                     });
  std::sort(chunks.begin(), chunks.end());
  size_t expected_lo = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, expected_lo);
    EXPECT_GT(hi, lo);
    expected_lo = hi;
  }
  EXPECT_EQ(expected_lo, 103u);
}

TEST(ParallelForChunkedTest, WorkerIndicesAreDistinct) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<size_t> workers;
  ParallelForChunked(&pool, 0, 100,
                     [&](size_t, size_t, size_t worker) {
                       std::lock_guard<std::mutex> lock(mu);
                       workers.push_back(worker);
                     });
  std::sort(workers.begin(), workers.end());
  for (size_t i = 0; i < workers.size(); ++i) {
    EXPECT_EQ(workers[i], i);
  }
}

}  // namespace
}  // namespace prefcover
