#include "util/task_graph.hpp"

#include <exception>
#include <string>
#include <utility>

#include "util/contracts.hpp"
#include "util/metrics.hpp"

namespace baffle {

const char* task_node_kind_name(TaskNodeKind kind) {
  switch (kind) {
    case TaskNodeKind::kExperiment:
      return "experiment";
  }
  return "unknown";
}

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
  roots_.push_back(pool_.submit([kind, fn = std::move(fn)] {
    {
      // Timed whether or not fn throws; a throw lands in the root's
      // future and skips the completion count.
      const ScopedTimer timer(std::string("task_graph.node.") +
                              task_node_kind_name(kind));
      fn();
    }
    MetricsRegistry::global().add_counter("task_graph.tasks");
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
