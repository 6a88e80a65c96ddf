#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>

namespace baffle {
namespace {

TEST(ThreadPool, RunsSubmittedJobs) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.wait();
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t i) {
                                   if (i == 3) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ExceptionFromNestedInnerLoopPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [&](std::size_t outer) {
                          pool.parallel_for(4, [&](std::size_t inner) {
                            if (outer == 1 && inner == 2) {
                              throw std::runtime_error("nested boom");
                            }
                          });
                        }),
      std::runtime_error);
}

TEST(ThreadPool, PoolStaysUsableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4, [](std::size_t) { throw std::logic_error("x"); }),
      std::logic_error);
  std::atomic<int> total{0};
  pool.parallel_for(16, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, ExceptionDoesNotAbortRemainingIndices) {
  // parallel_for records the first error but keeps draining indices, so
  // every iteration still runs exactly once.
  ThreadPool pool(2);
  std::atomic<int> started{0};
  EXPECT_THROW(pool.parallel_for(32,
                                 [&](std::size_t i) {
                                   started.fetch_add(1);
                                   if (i == 0) {
                                     throw std::runtime_error("early");
                                   }
                                 }),
               std::runtime_error);
  EXPECT_EQ(started.load(), 32);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Saturate a small pool with outer iterations that each run an inner
  // parallel_for; the helping wait must drain everything.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(6, [&](std::size_t) {
    pool.parallel_for(10, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 60);
}

TEST(ThreadPool, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> total{0};
  pool.parallel_for(25, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 25);
}

TEST(ThreadPool, TryRunOneEmptyQueue) {
  ThreadPool pool(1);
  EXPECT_FALSE(pool.try_run_one());
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(ThreadPool, ScopedGlobalPoolInstallsNestsAndRestores) {
  ThreadPool* const outer = &ThreadPool::global();
  {
    const ScopedGlobalPool four_workers(4);
    ThreadPool* const four = &ThreadPool::global();
    EXPECT_NE(four, outer);
    EXPECT_EQ(four->size(), 4u);
    {
      const ScopedGlobalPool one_worker(1);
      EXPECT_NE(&ThreadPool::global(), four);
      EXPECT_EQ(ThreadPool::global().size(), 1u);
      std::atomic<int> total{0};
      ThreadPool::global().parallel_for(
          9, [&](std::size_t) { total.fetch_add(1); });
      EXPECT_EQ(total.load(), 9);
    }
    EXPECT_EQ(&ThreadPool::global(), four);
  }
  EXPECT_EQ(&ThreadPool::global(), outer);
  EXPECT_THROW(ScopedGlobalPool(0), std::invalid_argument);
  EXPECT_EQ(&ThreadPool::global(), outer);
}

TEST(ThreadPool, ParseThreadCountAcceptsOnlyWholeTokensInRange) {
  EXPECT_EQ(parse_thread_count("1"), 1u);
  EXPECT_EQ(parse_thread_count("4"), 4u);
  EXPECT_EQ(parse_thread_count("1024"), 1024u);
  for (const char* bad :
       {"-1", "0", "abc", "4x", "1025", "", " 4", "+4", "99999999999"}) {
    SCOPED_TRACE(bad);
    try {
      parse_thread_count(bad);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("BAFFLE_THREADS=" +
                                           std::string(bad)),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace baffle
