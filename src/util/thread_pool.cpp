#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "util/contracts.hpp"
#include "util/metrics.hpp"

namespace baffle {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
    ++progress_;
  }
  cv_.notify_all();
  progress_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> job) {
  std::packaged_task<void()> task(std::move(job));
  auto fut = task.get_future();
  {
    MutexLock lock(mutex_);
    queue_.push(std::move(task));
    ++progress_;
  }
  cv_.notify_one();
  progress_cv_.notify_all();
  return fut;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  Mutex error_mutex;
  auto body = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };
  const std::size_t fanout = std::min(n, size());
  std::vector<std::future<void>> futures;
  futures.reserve(fanout);
  for (std::size_t i = 0; i + 1 < fanout; ++i) futures.push_back(submit(body));
  body();  // caller participates, so parallel_for works from pool threads too
  for (auto& f : futures) {
    // Help drain the queue instead of blocking: nested parallel_for
    // calls from pool threads would otherwise deadlock a saturated pool.
    // When the queue is empty but the future is still unfinished (the
    // tail task runs on another worker), sleep on the pool's progress
    // condition variable: the tail task's completion wakes the caller
    // exactly once, with no timed-backoff polling slices. The stamp is
    // read before the readiness check, so a completion racing with the
    // check either flips the future to ready or advances the stamp —
    // never a lost wakeup.
    for (;;) {
      const std::uint64_t seen = progress_stamp();
      if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        break;
      }
      if (try_run_one()) continue;
      wait_progress(seen);
    }
  }
  if (error) std::rethrow_exception(error);
}

std::uint64_t ThreadPool::progress_stamp() const {
  MutexLock lock(mutex_);
  return progress_;
}

void ThreadPool::wait_progress(std::uint64_t seen) const {
  MutexLock lock(mutex_);
  while (!stop_ && progress_ == seen) progress_cv_.wait(mutex_);
}

namespace {

/// The innermost live ScopedGlobalPool's pool, or null. Atomic because
/// global() is read on every thread while a scope installs or restores.
std::atomic<ThreadPool*> g_installed{nullptr};

constexpr std::size_t kMaxPoolThreads = 1024;

}  // namespace

std::size_t parse_thread_count(const std::string& text) {
  const auto reject = [&text](const std::string& why) {
    return std::invalid_argument("BAFFLE_THREADS=" + text + ": " + why);
  };
  if (text.empty() || text.find_first_not_of("0123456789") != text.npos) {
    throw reject("not a whole decimal number");
  }
  std::size_t n = 0;
  for (const char c : text) {
    n = n * 10 + static_cast<std::size_t>(c - '0');
    if (n > kMaxPoolThreads) break;  // stop before the value can overflow
  }
  if (n < 1 || n > kMaxPoolThreads) {
    throw reject("worker count must be in [1, " +
                 std::to_string(kMaxPoolThreads) + "]");
  }
  return n;
}

ThreadPool& ThreadPool::global() {
  if (ThreadPool* installed = g_installed.load()) {
    return *installed;
  }
  // BAFFLE_THREADS sizes the shared pool — lets single-core CI hosts
  // still exercise the concurrent code paths (e.g. under TSan) and lets
  // benchmarks pin the worker count. A rejected value throws here, and
  // the next call retries the initialization.
  static ThreadPool pool([] {
    const char* env = std::getenv("BAFFLE_THREADS");
    return env == nullptr ? std::size_t{0} : parse_thread_count(env);
  }());
  return pool;
}

ScopedGlobalPool::ScopedGlobalPool(std::size_t num_threads)
    : pool_([num_threads] {
        BAFFLE_CHECK(num_threads >= 1,
                     "ScopedGlobalPool needs at least one worker");
        return num_threads;
      }()),
      previous_(g_installed.exchange(&pool_)) {}

ScopedGlobalPool::~ScopedGlobalPool() {
  g_installed.store(previous_);
}

bool ThreadPool::try_run_one() {
  std::packaged_task<void()> task;
  {
    MutexLock lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
  }
  MetricsRegistry::global().add_counter("thread_pool.help_drained");
  task();
  bump_progress();
  return true;
}

void ThreadPool::bump_progress() {
  {
    MutexLock lock(mutex_);
    ++progress_;
  }
  progress_cv_.notify_all();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) cv_.wait(mutex_);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    bump_progress();
  }
}

}  // namespace baffle
