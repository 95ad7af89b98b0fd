// Tests for ThreadPool, ParallelFor and ParallelArgMax.

#include <atomic>
#include <limits>
#include <numeric>
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

class ParallelArgMaxTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelArgMaxTest, FindsUniqueMaximum) {
  ThreadPool pool(GetParam());
  std::vector<double> scores(500);
  for (size_t i = 0; i < scores.size(); ++i) {
    scores[i] = static_cast<double>((i * 37) % 499);
  }
  scores[371] = 1000.0;
  double best = 0.0;
  size_t arg = ParallelArgMax(&pool, scores.size(),
                              [&scores](size_t i) { return scores[i]; },
                              &best);
  EXPECT_EQ(arg, 371u);
  EXPECT_DOUBLE_EQ(best, 1000.0);
}

TEST_P(ParallelArgMaxTest, TieBreaksToSmallerIndex) {
  ThreadPool pool(GetParam());
  std::vector<double> scores(100, 1.0);
  scores[30] = 5.0;
  scores[70] = 5.0;
  double best = 0.0;
  size_t arg = ParallelArgMax(&pool, scores.size(),
                              [&scores](size_t i) { return scores[i]; },
                              &best);
  EXPECT_EQ(arg, 30u);
}

TEST_P(ParallelArgMaxTest, AllSkippedReturnsN) {
  ThreadPool pool(GetParam());
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  double best = 0.0;
  size_t arg = ParallelArgMax(&pool, 50, [](size_t) { return kNegInf; },
                              &best);
  EXPECT_EQ(arg, 50u);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelArgMaxTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(ParallelArgMaxTest, TieBreakStableUnderContention) {
  // The solvers' determinism rests on "equal scores -> smaller index
  // wins" holding for every chunk/thread interleaving. Hammer it: many
  // equal-score candidates, a wide pool, 100 repetitions.
  ThreadPool pool(8);
  std::vector<double> scores(1024, 1.0);
  scores[97] = 7.0;
  scores[98] = 7.0;
  scores[641] = 7.0;  // equal maxima far apart, in different chunks
  for (int rep = 0; rep < 100; ++rep) {
    double best = 0.0;
    size_t arg = ParallelArgMax(&pool, scores.size(),
                                [&scores](size_t i) { return scores[i]; },
                                &best);
    ASSERT_EQ(arg, 97u) << "rep " << rep;
    ASSERT_DOUBLE_EQ(best, 7.0);
  }
  // All-equal input: index 0 must win every time.
  for (int rep = 0; rep < 100; ++rep) {
    double best = 0.0;
    size_t arg = ParallelArgMax(&pool, 512, [](size_t) { return 3.5; },
                                &best);
    ASSERT_EQ(arg, 0u) << "rep " << rep;
  }
}

TEST(ParallelArgMaxTest, MatchesSerialForManySeeds) {
  ThreadPool pool(4);
  for (uint64_t seed = 0; seed < 20; ++seed) {
    std::vector<double> scores(211);
    uint64_t state = seed * 2654435761u + 1;
    for (auto& s : scores) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      s = static_cast<double>(state >> 40);
    }
    size_t serial_arg = 0;
    for (size_t i = 1; i < scores.size(); ++i) {
      if (scores[i] > scores[serial_arg]) serial_arg = i;
    }
    double best = 0.0;
    size_t parallel_arg = ParallelArgMax(
        &pool, scores.size(), [&scores](size_t i) { return scores[i]; },
        &best);
    EXPECT_EQ(parallel_arg, serial_arg) << "seed " << seed;
    EXPECT_DOUBLE_EQ(best, scores[serial_arg]);
  }
}

}  // namespace
}  // namespace prefcover
