#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

namespace baffle {
namespace {

TEST(MetricsRegistry, CountersAccumulate) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.counter("x"), 0u);
  registry.add_counter("x");
  registry.add_counter("x", 4);
  EXPECT_EQ(registry.counter("x"), 5u);
  EXPECT_EQ(registry.counter("y"), 0u);
}

TEST(MetricsRegistry, AddCountersAddsEachDeltaAndSkipsZeros) {
  MetricsRegistry registry;
  registry.add_counter("a", 2);
  registry.add_counters({{"a", 3}, {"b", 1}, {"zero", 0}});
  EXPECT_EQ(registry.counter("a"), 5u);
  EXPECT_EQ(registry.counter("b"), 1u);
  // A zero delta creates no counter, as no add_counter call would.
  const auto samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "a");
  EXPECT_EQ(samples[1].name, "b");
}

TEST(MetricsRegistry, TimersAccumulateSamplesAndSeconds) {
  MetricsRegistry registry;
  registry.add_timer("t", 0.25);
  registry.add_timer("t", 0.5);
  EXPECT_EQ(registry.timer_count("t"), 2u);
  EXPECT_DOUBLE_EQ(registry.timer_seconds("t"), 0.75);
  EXPECT_EQ(registry.timer_count("missing"), 0u);
  EXPECT_DOUBLE_EQ(registry.timer_seconds("missing"), 0.0);
}

TEST(MetricsRegistry, SnapshotListsEverything) {
  MetricsRegistry registry;
  registry.add_counter("c", 3);
  registry.add_timer("t", 1.5);
  const auto samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 2u);
  bool saw_counter = false, saw_timer = false;
  for (const auto& s : samples) {
    if (s.name == "c" && s.kind == "counter" && s.count == 3) {
      saw_counter = true;
    }
    if (s.name == "t" && s.kind == "timer" && s.count == 1 &&
        s.total_seconds == 1.5) {
      saw_timer = true;
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_timer);
}

TEST(MetricsRegistry, ResetDropsAllMetrics) {
  MetricsRegistry registry;
  registry.add_counter("c");
  registry.add_timer("t", 1.0);
  registry.reset();
  EXPECT_EQ(registry.counter("c"), 0u);
  EXPECT_EQ(registry.timer_count("t"), 0u);
  EXPECT_TRUE(registry.snapshot().empty());
}

TEST(MetricsRegistry, ScopedTimerRecordsOnDestruction) {
  MetricsRegistry registry;
  {
    const ScopedTimer timer("scope", registry);
    EXPECT_EQ(registry.timer_count("scope"), 0u);
  }
  EXPECT_EQ(registry.timer_count("scope"), 1u);
  EXPECT_GE(registry.timer_seconds("scope"), 0.0);
}

TEST(MetricsRegistry, ScopedTimerBillsNoHelpedTimeAndNestingCountsOnce) {
  using Clock = std::chrono::steady_clock;
  MetricsRegistry registry;
  const double helped_before = helped_seconds_this_thread();
  Clock::time_point t0, t1;
  {
    const ScopedTimer timer("waiter", registry);
    t0 = Clock::now();
    {
      // A helped task that itself helps: the outer scope's wall time
      // already covers the nested one.
      const HelpedTaskScope helped;
      {
        const HelpedTaskScope nested;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    t1 = Clock::now();
  }
  const double helped = helped_seconds_this_thread() - helped_before;
  EXPECT_GE(helped, 0.04);
  EXPECT_LE(helped, std::chrono::duration<double>(t1 - t0).count());
  // The waiter's own work was two clock reads, not the 40 ms it helped.
  EXPECT_LT(registry.timer_seconds("waiter"), 0.02);
}

TEST(MetricsRegistry, ConcurrentUpdatesDoNotLoseCounts) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        registry.add_counter("shared");
        registry.add_timer("shared_t", 0.001);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(registry.counter("shared"), 4000u);
  EXPECT_EQ(registry.timer_count("shared_t"), 4000u);
}

TEST(MetricsRegistry, DumpCsvWritesEveryMetric) {
  MetricsRegistry registry;
  registry.add_counter("cache.hits", 12);
  registry.add_timer("round", 0.5);
  const std::string path = ::testing::TempDir() + "metrics_test_dump.csv";
  registry.dump_csv(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  const std::string text = contents.str();
  EXPECT_NE(text.find("kind,name,count,total_seconds"), std::string::npos);
  EXPECT_NE(text.find("counter,cache.hits,12"), std::string::npos);
  EXPECT_NE(text.find("timer,round,1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricsRegistry, GlobalIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

}  // namespace
}  // namespace baffle
