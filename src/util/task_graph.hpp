#pragma once
// Experiment-root fan-out on top of ThreadPool.
//
// A TaskGraph runs independent experiment roots — run_repeated's
// repetitions, run_sweep's cells — as pool tasks and joins them. Roots
// never depend on one another and each writes only its own result
// slot, so the schedule cannot change any result.
//
// Waiting help-drains the pool (ThreadPool::wait), so a root may itself
// fork-join on the same pool — a round's parallel_for, or a nested
// TaskGraph — without deadlocking a saturated pool: a blocked waiter
// always either runs queued work or sleeps until some task completes
// elsewhere.
//
// Error model: a throwing root does not stop the others. wait_all()
// joins every root, then rethrows the first recorded exception once, so
// root closures never outlive the locals they capture.
//
// A graph belongs to the thread that builds it: add() and wait_all()
// are called from that thread only.

#include <functional>
#include <future>
#include <vector>

#include "util/thread_pool.hpp"

namespace baffle {

/// Work-unit flavor; names the task_graph.node.<kind> timer and
/// nothing else.
enum class TaskNodeKind {
  kExperiment,  // whole-experiment root (repetition or sweep cell)
};

const char* task_node_kind_name(TaskNodeKind kind);

class TaskGraph {
 public:
  explicit TaskGraph(ThreadPool& pool = ThreadPool::global());
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;
  /// Waits for every root still running (an unobserved exception is
  /// dropped) so root closures never dangle.
  ~TaskGraph();

  /// Submits `fn` to the pool as an independent root; it may start
  /// before add() returns.
  void add(TaskNodeKind kind, std::function<void()> fn);

  /// Blocks until every root added so far has finished, help-draining
  /// the pool while waiting. Rethrows the first root exception (once);
  /// the graph stays usable — more roots may be added afterwards.
  void wait_all();

 private:
  ThreadPool& pool_;
  std::vector<std::future<void>> roots_;  // not yet joined
};

}  // namespace baffle
