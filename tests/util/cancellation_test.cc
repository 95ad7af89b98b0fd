#include "util/cancellation.h"

#include <csignal>

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace prefcover
