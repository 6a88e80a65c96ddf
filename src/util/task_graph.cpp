#include "util/task_graph.hpp"

#include <exception>
#include <utility>

#include "util/contracts.hpp"
#include "util/metric_names.hpp"
#include "util/metrics.hpp"

namespace baffle {

const char* task_node_kind_name(TaskNodeKind kind) {
  switch (kind) {
    case TaskNodeKind::kExperiment:
      return "experiment";
  }
  return "unknown";
}

namespace {

/// The task_graph.node.<kind> timer of each kind.
const char* node_timer(TaskNodeKind kind) {
  BAFFLE_CHECK(kind == TaskNodeKind::kExperiment,
               "TaskGraph::add: unknown node kind");
  return metric::kExperimentNode;
}

}  // namespace

TaskGraph::TaskGraph(ThreadPool& pool) : pool_(pool) {}

TaskGraph::~TaskGraph() {
  // Quiesce so root closures (which capture caller locals) cannot
  // outlive the graph — the exceptional-unwind counterpart of a normal
  // wait_all().
  try {
    wait_all();
  } catch (...) {  // may be unwinding already: an unobserved error dies here
  }
}

void TaskGraph::add(TaskNodeKind kind, std::function<void()> fn) {
  BAFFLE_CHECK(fn != nullptr, "TaskGraph::add: null task body");
  roots_.push_back(pool_.submit([timer_name = node_timer(kind),
                                 fn = std::move(fn)] {
    {
      // Timed whether or not fn throws; a throw lands in the root's
      // future and skips the completion count.
      const ScopedTimer timer(timer_name);
      fn();
    }
    MetricsRegistry::global().add_counter(metric::kGraphTasks);
  }));
}

void TaskGraph::wait_all() {
  std::exception_ptr first;
  for (std::future<void>& root : roots_) {
    pool_.wait(root);
    try {
      root.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  roots_.clear();
  if (first) std::rethrow_exception(first);
}

}  // namespace baffle
