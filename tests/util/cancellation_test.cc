#include "util/cancellation.h"

#include <csignal>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/parallel_for.h"
#include "util/thread_pool.h"

namespace prefcover {
namespace {

TEST(CancelTokenTest, StartsClean) {
  CancelToken token;
  EXPECT_FALSE(token.IsCancelled());
  EXPECT_FALSE(token.cancel_requested());
  EXPECT_FALSE(token.has_deadline());
}

TEST(CancelTokenTest, CancelTripsAndSticks) {
  CancelToken token;
  token.Cancel();
  EXPECT_TRUE(token.IsCancelled());
  EXPECT_TRUE(token.cancel_requested());
  token.Cancel();  // idempotent
  EXPECT_TRUE(token.IsCancelled());
}

TEST(CancelTokenTest, PastDeadlineExpiresWithoutExplicitCancel) {
  CancelToken token;
  token.SetTimeout(-1.0);
  EXPECT_TRUE(token.has_deadline());
  EXPECT_TRUE(token.IsCancelled());
  // A deadline expiry is distinguishable from an explicit Cancel().
  EXPECT_FALSE(token.cancel_requested());
}

TEST(CancelTokenTest, ZeroTimeoutExpiresImmediately) {
  CancelToken token;
  token.SetTimeout(0.0);
  EXPECT_TRUE(token.IsCancelled());
}

TEST(CancelTokenTest, FarFutureDeadlineDoesNotFire) {
  CancelToken token;
  token.SetTimeout(3600.0);
  EXPECT_TRUE(token.has_deadline());
  EXPECT_FALSE(token.IsCancelled());
}

TEST(CancelTokenTest, ShortTimeoutFiresAfterSleep) {
  CancelToken token;
  token.SetTimeout(0.005);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(token.IsCancelled());
}

TEST(CancelTokenTest, ClearDeadlineDisarms) {
  CancelToken token;
  token.SetTimeout(-1.0);
  ASSERT_TRUE(token.IsCancelled());
  token.ClearDeadline();
  EXPECT_FALSE(token.has_deadline());
  EXPECT_FALSE(token.IsCancelled());
}

TEST(CancelTokenTest, ClearDeadlineDoesNotRevertExplicitCancel) {
  CancelToken token;
  token.Cancel();
  token.ClearDeadline();
  EXPECT_TRUE(token.IsCancelled());
}

TEST(CancelTokenTest, AbsoluteDeadline) {
  CancelToken token;
  token.SetDeadline(std::chrono::steady_clock::now() -
                    std::chrono::seconds(1));
  EXPECT_TRUE(token.IsCancelled());
  token.SetDeadline(std::chrono::steady_clock::now() +
                    std::chrono::hours(1));
  EXPECT_FALSE(token.IsCancelled());
}

TEST(CancelTokenTest, CancelVisibleAcrossThreads) {
  CancelToken token;
  std::atomic<bool> observed{false};
  std::thread watcher([&] {
    while (!token.IsCancelled()) std::this_thread::yield();
    observed.store(true);
  });
  token.Cancel();
  watcher.join();
  EXPECT_TRUE(observed.load());
}

TEST(CancelTokenTest, SignalHookupTripsToken) {
  CancelToken token;
  InstallSignalCancel(&token);
  // One delivery only: the second would restore the default disposition
  // and re-raise, killing the test binary.
  std::raise(SIGTERM);
  EXPECT_TRUE(token.IsCancelled());
  EXPECT_EQ(LastCancelSignal(), SIGTERM);
  InstallSignalCancel(nullptr);
}

TEST(ParallelForCancelTest, PreCancelledRunsNothing) {
  ThreadPool pool(4);
  CancelToken token;
  token.Cancel();
  std::atomic<size_t> executed{0};
  ParallelFor(&pool, 0, 10'000, [&](size_t) { ++executed; }, &token);
  EXPECT_EQ(executed.load(), 0u);
}

TEST(ParallelForCancelTest, NullTokenRunsEverything) {
  ThreadPool pool(4);
  std::atomic<size_t> executed{0};
  ParallelFor(&pool, 0, 10'000, [&](size_t) { ++executed; }, nullptr);
  EXPECT_EQ(executed.load(), 10'000u);
}

TEST(ParallelForCancelTest, MidRunCancelSkipsRemainingChunks) {
  // One of the two workers is parked on a blocker task, so the two chunks
  // execute serially on the free worker: the first chunk trips the token
  // (and, being already running, completes — chunk granularity), the
  // second sees the tripped token before starting and is skipped whole.
  ThreadPool pool(2);
  CancelToken token;
  std::atomic<bool> release{false};
  pool.Submit([&] {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::atomic<size_t> executed{0};
  std::atomic<size_t> chunks_started{0};
  ParallelForChunked(
      &pool, 0, 10'000,
      [&](size_t chunk_begin, size_t chunk_end, size_t) {
        ++chunks_started;
        token.Cancel();
        executed += chunk_end - chunk_begin;
      },
      &token);
  release.store(true);
  EXPECT_EQ(chunks_started.load(), 1u);
  EXPECT_EQ(executed.load(), 5'000u);
}

TEST(ParallelForCancelTest, CancelledArgMaxSignalsEmptyResult) {
  ThreadPool pool(4);
  CancelToken token;
  token.Cancel();
  double best = 0.0;
  const size_t n = 1'000;
  size_t arg = ParallelArgMax(
      &pool, n, [](size_t i) { return static_cast<double>(i); }, &best,
      &token);
  // Every chunk was skipped, so the documented "all skipped" sentinel.
  EXPECT_EQ(arg, n);
}

}  // namespace
}  // namespace prefcover
