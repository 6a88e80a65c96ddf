#pragma once
// Fixed-size thread pool with a `parallel_for` helper.
//
// FL rounds train each selected client independently; the pool lets a
// round's local-training jobs (and experiment repetitions) run
// concurrently. Determinism is preserved by handing each job a
// pre-forked Rng rather than sharing one.
//
// The global pool's size is the only concurrency setting: a one-worker
// pool runs every parallel_for inline, which is the serial baseline.
// BAFFLE_THREADS sizes it per process; ScopedGlobalPool resizes it for
// a scope, so parity tests and benches compare 1 vs N workers in one
// process.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <queue>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/sync.hpp"

namespace baffle {

class ThreadPool {
 public:
  /// Creates `num_threads` workers (default: hardware concurrency, at
  /// least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a job; the returned future resolves when it completes.
  std::future<void> submit(std::function<void()> job);

  /// Run fn(i) for i in [0, n), blocking until all iterations finish.
  /// Exceptions thrown by iterations propagate (the first one observed).
  /// Safe to call from inside pool tasks (nested fork-join): while
  /// waiting, the caller helps drain the queue instead of blocking, so
  /// saturating the pool with outer loops cannot deadlock inner ones.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Blocks until `job` (a future from submit) is ready, running queued
  /// tasks meanwhile instead of blocking, so a pool task may wait on
  /// work it submitted without deadlocking a saturated pool. Does not
  /// consume the future: get() it afterwards for the job's exception.
  void wait(const std::future<void>& job);

  /// Pops and runs one queued task if any; returns whether it did. The
  /// task's wall time counts as this thread's helped time
  /// (helped_seconds_this_thread), which ScopedTimers do not bill.
  bool try_run_one();

  /// Process-wide shared pool: the innermost live ScopedGlobalPool's,
  /// else a lazily constructed one sized by BAFFLE_THREADS (unset:
  /// hardware concurrency). Throws std::invalid_argument when
  /// BAFFLE_THREADS is set but not accepted by parse_env_count.
  static ThreadPool& global();

 private:
  void worker_loop();
  void bump_progress();

  /// Monotonic stamp bumped whenever the pool makes progress: a task is
  /// queued or a task finishes. Pair with wait_progress to sleep between
  /// help-drain attempts instead of polling.
  std::uint64_t progress_stamp() const;

  /// Blocks until progress_stamp() != seen (a task completed somewhere
  /// or new work arrived) or the pool is shutting down. wait() calls
  /// this only when the queue is empty, so a completion on another
  /// worker wakes it exactly once — no timed backoff.
  void wait_progress(std::uint64_t seen) const;

  std::vector<std::thread> workers_;
  mutable Mutex mutex_;
  std::queue<std::packaged_task<void()>> queue_ BAFFLE_GUARDED_BY(mutex_);
  CondVar cv_;                    // workers: queued work or shutdown
  mutable CondVar progress_cv_;   // waiters: any task queued/completed
  // Progress-stamp protocol: bumped under mutex_ on every submit and
  // every completion; wait_progress sleepers re-check it against the
  // stamp they read before their readiness check (no lost wakeups).
  std::uint64_t progress_ BAFFLE_GUARDED_BY(mutex_) = 0;
  bool stop_ BAFFLE_GUARDED_BY(mutex_) = false;
};

/// Parses the value `text` of the count variable `var` (BAFFLE_THREADS,
/// BAFFLE_BENCH_REPS): a whole decimal token in [1, 1024]. Anything else
/// (empty, signed, trailing characters, out of range) throws
/// std::invalid_argument "VAR=text: reason", where an out-of-range
/// reason names the count as `noun` ("worker count").
std::size_t parse_env_count(std::string_view var, std::string_view noun,
                            const std::string& text);

/// Installs an owned pool of `num_threads` (≥ 1) workers as
/// ThreadPool::global() for its lifetime and restores the previous
/// global pool on destruction, so scopes nest. A seam for tests and
/// benches: it sets the same value BAFFLE_THREADS sets, the pool size.
///
/// Precondition: no pool work is in flight when the override is
/// created or destroyed — code that captured the previous pool (a
/// TaskGraph, a pending parallel_for) must have finished.
class ScopedGlobalPool {
 public:
  explicit ScopedGlobalPool(std::size_t num_threads);
  ~ScopedGlobalPool();

  ScopedGlobalPool(const ScopedGlobalPool&) = delete;
  ScopedGlobalPool& operator=(const ScopedGlobalPool&) = delete;

 private:
  ThreadPool pool_;
  ThreadPool* previous_;
};

}  // namespace baffle
