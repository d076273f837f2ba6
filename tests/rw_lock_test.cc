// RwLock (src/base/rw_lock.h): mutual exclusion under real threads, the
// reader-preferring rule that lets a shared holder re-acquire past a waiting
// writer, and the try_* semantics.

#include "src/base/rw_lock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

namespace protego {
namespace {

// Writers keep a plain (non-atomic) pair equal under lock(); readers under
// lock_shared() must never see it torn. Under -fsanitize=thread this is
// also the race audit of the lock's memory ordering.
TEST(RwLock, ReadersNeverSeeATornPairUnderRealThreads) {
  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kIters = 20000;
  RwLock mu;
  long first = 0;
  long second = 0;
  std::atomic<int> torn{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::unique_lock<RwLock> lk(mu);
        ++first;
        ++second;
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::shared_lock<RwLock> lk(mu);
        if (first != second) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(first, long{kWriters} * kIters);
  EXPECT_EQ(second, long{kWriters} * kIters);
}

// Reader preference: while this thread holds the lock shared and a writer
// is blocked waiting for it, taking it shared again must succeed at once
// (a writer-preferring lock would deadlock here). A watchdog bounds the
// wait, so a regression fails instead of hanging the suite.
TEST(RwLock, NestedSharedAcquisitionPassesAWaitingWriter) {
  RwLock mu;
  mu.lock_shared();
  std::atomic<bool> writer_started{false};
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    writer_started.store(true);
    std::lock_guard<RwLock> lk(mu);
    writer_done.store(true);
  });
  while (!writer_started.load()) {
    std::this_thread::yield();
  }
  // Long enough for the writer to pass its spin phase and sleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_FALSE(writer_done.load()) << "writer entered while a reader held the lock";

  std::mutex wd_mu;
  std::condition_variable wd_cv;
  bool nested_done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lk(wd_mu);
    if (!wd_cv.wait_for(lk, std::chrono::seconds(10), [&] { return nested_done; })) {
      std::fprintf(stderr, "nested lock_shared deadlocked behind a waiting writer\n");
      std::abort();
    }
  });
  mu.lock_shared();
  {
    std::lock_guard<std::mutex> lk(wd_mu);
    nested_done = true;
  }
  wd_cv.notify_all();
  watchdog.join();

  EXPECT_FALSE(writer_done.load());
  mu.unlock_shared();
  EXPECT_FALSE(writer_done.load()) << "writer entered while a reader still held the lock";
  mu.unlock_shared();
  writer.join();
  EXPECT_TRUE(writer_done.load());
}

TEST(RwLock, TryLockFollowsHolderState) {
  RwLock mu;
  // Free: either kind succeeds.
  ASSERT_TRUE(mu.try_lock());
  // Held unique: neither kind succeeds.
  EXPECT_FALSE(mu.try_lock());
  EXPECT_FALSE(mu.try_lock_shared());
  mu.unlock();

  ASSERT_TRUE(mu.try_lock_shared());
  // Held shared: more readers succeed, a writer does not.
  EXPECT_TRUE(mu.try_lock_shared());
  EXPECT_FALSE(mu.try_lock());
  mu.unlock_shared();
  EXPECT_FALSE(mu.try_lock());
  mu.unlock_shared();
  // Every holder gone: free again.
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
  std::unique_lock<RwLock> lk(mu, std::try_to_lock);
  EXPECT_TRUE(lk.owns_lock());
}

}  // namespace
}  // namespace protego
