// Runtime behavior of the annotated synchronization wrappers
// (util/sync.hpp). The capability annotations themselves are checked at
// compile time by the clang gate (BAFFLE_THREAD_SAFETY=ON and the
// tools/thread_safety_fixtures.sh compile-fail tests); these tests pin
// the wrappers' semantics on every compiler: mutual exclusion and the
// adopt/release handshake inside CondVar waits.
#include "util/sync.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

namespace baffle {
namespace {

using namespace std::chrono_literals;

TEST(SyncTest, MutexLockProvidesMutualExclusion) {
  Mutex mu;
  long counter = 0;  // unsynchronized increments would lose updates
  constexpr int kThreads = 4;
  constexpr int kIncrements = 25'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  MutexLock lock(mu);
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIncrements);
}

TEST(SyncTest, TryLockFailsWhileHeldAndSucceedsAfterRelease) {
  Mutex mu;
  bool acquired_while_held = true;
  {
    MutexLock lock(mu);
    std::thread contender([&] {
      acquired_while_held = mu.try_lock();
      if (acquired_while_held) mu.unlock();
    });
    contender.join();
  }
  EXPECT_FALSE(acquired_while_held);
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(SyncTest, CondVarWaitReacquiresTheMutexAroundTheHandoff) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  int observed = 0;
  std::thread consumer([&] {
    MutexLock lock(mu);
    while (!ready) cv.wait(mu);
    // The mutex is held again here: this read is ordered after the
    // producer's writes under the same lock.
    observed = ready ? 42 : 0;
  });
  {
    MutexLock lock(mu);
    ready = true;
    cv.notify_one();
  }
  consumer.join();
  EXPECT_EQ(observed, 42);
}

TEST(SyncTest, CondVarWaitForTimesOutWithoutANotifier) {
  Mutex mu;
  CondVar cv;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  MutexLock lock(mu);
  // Spurious wakeups may return no_timeout; keep waiting until the
  // status itself reports the timeout (bounded by the outer deadline).
  std::cv_status status = std::cv_status::no_timeout;
  while (status != std::cv_status::timeout &&
         std::chrono::steady_clock::now() < deadline) {
    status = cv.wait_for(mu, 10ms);
  }
  EXPECT_EQ(status, std::cv_status::timeout);
}

}  // namespace
}  // namespace baffle
