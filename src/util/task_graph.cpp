#include "util/task_graph.hpp"

#include <chrono>
#include <string>
#include <utility>

#include "util/contracts.hpp"
#include "util/metrics.hpp"

namespace baffle {

const char* task_node_kind_name(TaskNodeKind kind) {
  switch (kind) {
    case TaskNodeKind::kTrain:
      return "train";
    case TaskNodeKind::kValidate:
      return "validate";
    case TaskNodeKind::kEval:
      return "eval";
    case TaskNodeKind::kCheckpoint:
      return "checkpoint";
    case TaskNodeKind::kExperiment:
      return "experiment";
  }
  return "unknown";
}

TaskGraph::TaskGraph(ThreadPool& pool) : pool_(pool) {}

TaskGraph::~TaskGraph() {
  // Quiesce so node closures (which capture caller locals and `this`)
  // cannot outlive the graph — the exceptional-unwind counterpart of a
  // normal wait_all().
  try {
    wait_all();
  } catch (...) {  // already unwinding: the stored error dies with us
  }
}

TaskGraph::TaskId TaskGraph::add(TaskNodeKind kind, std::function<void()> fn,
                                 const std::vector<TaskId>& deps) {
  BAFFLE_CHECK(fn != nullptr, "TaskGraph::add: null task body");
  std::vector<TaskId> ready;
  TaskId id = 0;
  {
    MutexLock lock(mutex_);
    id = nodes_.size();
    // Dependencies must already exist, which keeps the graph acyclic by
    // construction (a node can never depend on a later one). Validated
    // before any wiring so a violation leaves the graph untouched.
    for (const TaskId dep : deps) {
      if (dep == kNoTask) continue;
      BAFFLE_CHECK(dep < id, "TaskGraph::add: dependency on a later node");
    }
    nodes_.push_back(Node{});
    Node& node = nodes_.back();
    node.fn = std::move(fn);
    node.kind = kind;
    bool poisoned = false;
    for (const TaskId dep : deps) {
      if (dep == kNoTask) continue;
      Node& parent = nodes_[dep];
      switch (parent.state) {
        case State::kDone:
          break;  // already satisfied
        case State::kFailed:
        case State::kSkipped:
          poisoned = true;
          break;
        case State::kWaiting:
        case State::kReady:
          ++node.pending;
          parent.dependents.push_back(id);
          break;
      }
    }
    if (poisoned) {
      node.state = State::kSkipped;
      node.fn = nullptr;
      ++skipped_;
      return id;
    }
    ++unfinished_;
    if (node.pending == 0) {
      node.state = State::kReady;
      ready.push_back(id);
    }
  }
  submit_ready(ready);
  return id;
}

void TaskGraph::run_node(TaskId id) {
  std::function<void()> fn;
  TaskNodeKind kind = TaskNodeKind::kTrain;
  {
    MutexLock lock(mutex_);
    fn = std::move(nodes_[id].fn);
    nodes_[id].fn = nullptr;
    kind = nodes_[id].kind;
  }
  std::exception_ptr failure;
  const auto start = std::chrono::steady_clock::now();
  try {
    fn();
  } catch (...) {
    failure = std::current_exception();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  auto& metrics = MetricsRegistry::global();
  metrics.add_timer(std::string("task_graph.node.") + task_node_kind_name(kind),
                    seconds);
  if (!failure) metrics.add_counter("task_graph.tasks");

  std::vector<TaskId> ready;
  {
    MutexLock lock(mutex_);
    if (failure && !error_) error_ = failure;
    ready = finish_node(id, failure ? State::kFailed : State::kDone);
  }
  // After the lock is dropped a waiter may observe unfinished_ == 0 and
  // destroy the graph, so past this point only locals may be touched
  // when there is nothing left to submit.
  if (!ready.empty()) submit_ready(ready);
}

std::vector<TaskGraph::TaskId> TaskGraph::finish_node(TaskId id, State state) {
  std::vector<TaskId> ready;
  std::vector<TaskId> finished;
  nodes_[id].state = state;
  finished.push_back(id);
  while (!finished.empty()) {
    const TaskId nid = finished.back();
    finished.pop_back();
    Node& node = nodes_[nid];
    --unfinished_;
    if (node.state == State::kDone) ++run_;
    if (node.state == State::kSkipped) ++skipped_;
    const bool ok = node.state == State::kDone;
    for (const TaskId did : node.dependents) {
      Node& dep = nodes_[did];
      if (dep.state != State::kWaiting) continue;
      if (ok) {
        if (--dep.pending == 0) {
          dep.state = State::kReady;
          ready.push_back(did);
        }
      } else {
        // A failed (or skipped) dependency poisons the whole transitive
        // closure immediately — no point waiting for its other inputs.
        dep.state = State::kSkipped;
        dep.fn = nullptr;
        finished.push_back(did);
      }
    }
    node.dependents.clear();
  }
  return ready;
}

void TaskGraph::submit_ready(const std::vector<TaskId>& ready) {
  for (const TaskId id : ready) {
    pool_.submit([this, id] { run_node(id); });
  }
}

void TaskGraph::wait_all() {
  for (;;) {
    // Stamp before the check: a node completion racing with us either
    // drops unfinished_ to zero before we read it or advances the stamp
    // and wakes the wait below — never a lost wakeup.
    const std::uint64_t seen = pool_.progress_stamp();
    {
      MutexLock lock(mutex_);
      if (unfinished_ == 0) break;
    }
    if (pool_.try_run_one()) continue;
    pool_.wait_progress(seen);
  }
  std::exception_ptr err;
  {
    MutexLock lock(mutex_);
    err = error_;
    error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

std::size_t TaskGraph::tasks_run() const {
  MutexLock lock(mutex_);
  return run_;
}

std::size_t TaskGraph::tasks_skipped() const {
  MutexLock lock(mutex_);
  return skipped_;
}

}  // namespace baffle
