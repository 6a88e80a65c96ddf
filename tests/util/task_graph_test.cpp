// TaskGraph: independent experiment roots on the shared pool — error
// handling, nesting, and help-drain waiting (no deadlock when graphs
// wait from inside pool tasks).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>

#include "util/task_graph.hpp"

namespace baffle {
namespace {

TEST(TaskGraph, FailurePoisonsTransitiveDependentsAndRethrowsOnce) {
  // Roots have no dependents, so a throwing root poisons nothing: every
  // other root still runs, and wait_all rethrows the error once.
  const ScopedGlobalPool pool(4);
  TaskGraph graph;
  std::atomic<int> runs{0};
  graph.add(TaskNodeKind::kExperiment,
            [] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 8; ++i) {
    graph.add(TaskNodeKind::kExperiment, [&] { ++runs; });
  }
  EXPECT_THROW(graph.wait_all(), std::runtime_error);
  EXPECT_EQ(runs, 8);
  // The error was consumed; the graph stays usable afterwards.
  graph.add(TaskNodeKind::kExperiment, [&] { ++runs; });
  EXPECT_NO_THROW(graph.wait_all());
  EXPECT_EQ(runs, 9);
}

TEST(TaskGraph, AddingWhileRunningExtendsTheGraph) {
  TaskGraph graph;
  std::atomic<int> total{0};
  for (int wave = 0; wave < 4; ++wave) {
    for (int i = 0; i < 8; ++i) {
      graph.add(TaskNodeKind::kExperiment, [&] { ++total; });
    }
    graph.wait_all();
    EXPECT_EQ(total, 8 * (wave + 1));
  }
}

TEST(TaskGraph, NestedGraphsShareThePoolWithoutDeadlock) {
  // Every outer root builds and waits on an inner graph. With a
  // saturated pool this deadlocks unless waiting help-drains — the
  // sweep-over-experiments shape.
  const ScopedGlobalPool pool(4);
  TaskGraph outer;
  std::atomic<int> inner_runs{0};
  const std::size_t fanout = ThreadPool::global().size() * 2 + 2;
  for (std::size_t i = 0; i < fanout; ++i) {
    outer.add(TaskNodeKind::kExperiment, [&] {
      TaskGraph inner;
      for (int j = 0; j < 4; ++j) {
        inner.add(TaskNodeKind::kExperiment, [&] { ++inner_runs; });
      }
      inner.wait_all();
    });
  }
  outer.wait_all();
  EXPECT_EQ(inner_runs, static_cast<int>(fanout) * 4);
}

TEST(TaskGraph, DestructorQuiescesWithoutWaitAll) {
  std::atomic<int> runs{0};
  {
    TaskGraph graph;
    for (int i = 0; i < 16; ++i) {
      graph.add(TaskNodeKind::kExperiment, [&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++runs;
      });
    }
    // No wait_all: the destructor must drain before `runs` goes away.
  }
  EXPECT_EQ(runs, 16);
}

TEST(TaskGraph, KindNamesCoverEveryKind) {
  EXPECT_STREQ(task_node_kind_name(TaskNodeKind::kExperiment), "experiment");
}

}  // namespace
}  // namespace baffle
