// TaskGraph executor: dependency ordering, failure poisoning, nesting
// on the shared pool, and help-drain waiting (no deadlock when graphs
// wait from inside pool tasks).

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "util/contracts.hpp"
#include "util/task_graph.hpp"

namespace baffle {
namespace {

TEST(TaskGraph, ChainRunsInDependencyOrder) {
  TaskGraph graph;
  std::vector<int> order;
  std::mutex m;
  const auto record = [&](int v) {
    std::lock_guard lock(m);
    order.push_back(v);
  };
  const auto a = graph.add(TaskNodeKind::kTrain, [&] { record(1); });
  const auto b = graph.add(TaskNodeKind::kValidate, [&] { record(2); }, {a});
  graph.add(TaskNodeKind::kCheckpoint, [&] { record(3); }, {b});
  graph.wait_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(graph.tasks_run(), 3u);
  EXPECT_EQ(graph.tasks_skipped(), 0u);
}

TEST(TaskGraph, DiamondJoinWaitsForBothBranches) {
  TaskGraph graph;
  std::atomic<int> left{0};
  std::atomic<int> right{0};
  std::atomic<bool> join_saw_both{false};
  const auto root = graph.add(TaskNodeKind::kTrain, [] {});
  const auto l = graph.add(TaskNodeKind::kEval, [&] { left = 1; }, {root});
  const auto r = graph.add(TaskNodeKind::kEval, [&] { right = 1; }, {root});
  graph.add(TaskNodeKind::kCheckpoint,
            [&] { join_saw_both = left == 1 && right == 1; }, {l, r});
  graph.wait_all();
  EXPECT_TRUE(join_saw_both);
  EXPECT_EQ(graph.tasks_run(), 4u);
}

TEST(TaskGraph, NoTaskSentinelDependenciesAreIgnored) {
  TaskGraph graph;
  std::atomic<int> runs{0};
  graph.add(TaskNodeKind::kTrain, [&] { ++runs; },
            {TaskGraph::kNoTask, TaskGraph::kNoTask});
  graph.wait_all();
  EXPECT_EQ(runs, 1);
}

TEST(TaskGraph, FailurePoisonsTransitiveDependentsAndRethrowsOnce) {
  TaskGraph graph;
  std::atomic<int> runs{0};
  const auto bad = graph.add(TaskNodeKind::kTrain,
                             [] { throw std::runtime_error("boom"); });
  const auto child =
      graph.add(TaskNodeKind::kValidate, [&] { ++runs; }, {bad});
  graph.add(TaskNodeKind::kCheckpoint, [&] { ++runs; }, {child});
  graph.add(TaskNodeKind::kEval, [&] { ++runs; });  // independent: runs
  EXPECT_THROW(graph.wait_all(), std::runtime_error);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(graph.tasks_run(), 1u);
  EXPECT_EQ(graph.tasks_skipped(), 2u);
  // The error was consumed; the graph stays usable afterwards.
  graph.add(TaskNodeKind::kTrain, [&] { ++runs; });
  EXPECT_NO_THROW(graph.wait_all());
  EXPECT_EQ(runs, 2);
}

TEST(TaskGraph, DependingOnAFinishedFailedNodeSkipsAtBirth) {
  TaskGraph graph;
  const auto bad = graph.add(TaskNodeKind::kTrain,
                             [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(graph.wait_all(), std::runtime_error);
  std::atomic<int> runs{0};
  graph.add(TaskNodeKind::kValidate, [&] { ++runs; }, {bad});
  graph.wait_all();
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(graph.tasks_skipped(), 1u);
}

TEST(TaskGraph, ForwardDependencyIsAContractViolation) {
  TaskGraph graph;
  const auto a = graph.add(TaskNodeKind::kTrain, [] {});
  EXPECT_THROW(graph.add(TaskNodeKind::kValidate, [] {}, {a + 7}),
               ContractViolation);
  // The violating add left the graph untouched; it stays usable.
  std::atomic<int> runs{0};
  graph.add(TaskNodeKind::kValidate, [&] { ++runs; }, {a});
  graph.wait_all();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(graph.tasks_run(), 2u);
}

TEST(TaskGraph, AddingWhileRunningExtendsTheGraph) {
  TaskGraph graph;
  std::atomic<int> total{0};
  for (int wave = 0; wave < 4; ++wave) {
    TaskGraph::TaskId prev = TaskGraph::kNoTask;
    for (int i = 0; i < 8; ++i) {
      prev = graph.add(TaskNodeKind::kEval, [&] { ++total; }, {prev});
    }
    graph.wait_all();
  }
  EXPECT_EQ(total, 32);
  EXPECT_EQ(graph.tasks_run(), 32u);
}

TEST(TaskGraph, NestedGraphsShareThePoolWithoutDeadlock) {
  // Every outer node builds and waits on an inner graph. With a
  // saturated pool this deadlocks unless waiting help-drains — the
  // run_repeated / sweep-over-experiments shape.
  TaskGraph outer;
  std::atomic<int> inner_runs{0};
  const std::size_t fanout = ThreadPool::global().size() * 2 + 2;
  for (std::size_t i = 0; i < fanout; ++i) {
    outer.add(TaskNodeKind::kExperiment, [&] {
      TaskGraph inner;
      TaskGraph::TaskId prev = TaskGraph::kNoTask;
      for (int j = 0; j < 4; ++j) {
        prev = inner.add(TaskNodeKind::kTrain, [&] { ++inner_runs; }, {prev});
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
    TaskGraph::TaskId prev = TaskGraph::kNoTask;
    for (int i = 0; i < 16; ++i) {
      prev = graph.add(TaskNodeKind::kEval, [&] { ++runs; }, {prev});
    }
    // No wait_all: the destructor must drain before `runs` goes away.
  }
  EXPECT_EQ(runs, 16);
}

TEST(TaskGraph, KindNamesCoverEveryKind) {
  EXPECT_STREQ(task_node_kind_name(TaskNodeKind::kTrain), "train");
  EXPECT_STREQ(task_node_kind_name(TaskNodeKind::kValidate), "validate");
  EXPECT_STREQ(task_node_kind_name(TaskNodeKind::kEval), "eval");
  EXPECT_STREQ(task_node_kind_name(TaskNodeKind::kCheckpoint), "checkpoint");
  EXPECT_STREQ(task_node_kind_name(TaskNodeKind::kExperiment), "experiment");
}

}  // namespace
}  // namespace baffle
