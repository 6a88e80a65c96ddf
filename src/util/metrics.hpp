#pragma once
// Lightweight process-wide metrics registry: named monotonic counters
// and accumulating wall-clock timers.
//
// The evaluation hot path (Validator::validate, PredictionCache, the
// parallel GEMM kernels, run_experiment's round loop) reports here so
// throughput claims are measured, not guessed. Recording is mutex-backed
// and intended for per-call granularity (validations, rounds, large
// kernels) — not per-element loops. Dump the snapshot to CSV with
// MetricsRegistry::dump_csv or read single values in tests/benches.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/sync.hpp"

namespace baffle {

/// One named metric in a registry snapshot. Counters carry `count`
/// (value == 0); timers carry both the number of samples and the total
/// accumulated seconds.
struct MetricSample {
  std::string name;
  std::string kind;  // "counter" | "timer"
  std::uint64_t count = 0;
  double total_seconds = 0.0;
};

class MetricsRegistry {
 public:
  /// Process-wide shared registry (thread-safe).
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// counters[name] += delta.
  void add_counter(const std::string& name, std::uint64_t delta = 1);

  /// timers[name] += seconds (and one sample).
  void add_timer(const std::string& name, double seconds);

  std::uint64_t counter(const std::string& name) const;
  /// Total accumulated seconds for `name` (0 when never recorded).
  double timer_seconds(const std::string& name) const;
  /// Number of samples accumulated into timer `name`.
  std::uint64_t timer_count(const std::string& name) const;
  /// Mean milliseconds per sample of timer `name` (0 when never
  /// recorded) — the per-round figure the CLI summaries print.
  double timer_mean_ms(const std::string& name) const;

  /// All metrics, name-sorted (counters first is not guaranteed).
  std::vector<MetricSample> snapshot() const;

  /// Writes the snapshot via CsvWriter: kind,name,count,total_seconds.
  void dump_csv(const std::string& path) const;

  /// Drops every metric (tests and repeated bench runs).
  void reset();

 private:
  struct Timer {
    std::uint64_t count = 0;
    double total_seconds = 0.0;
  };

  mutable Mutex mutex_;
  std::map<std::string, std::uint64_t> counters_ BAFFLE_GUARDED_BY(mutex_);
  std::map<std::string, Timer> timers_ BAFFLE_GUARDED_BY(mutex_);
};

/// Wall seconds the calling thread has spent running tasks it took
/// from a pool queue while waiting on a join (ThreadPool::try_run_one),
/// each counted once however deeply the helping nests.
double helped_seconds_this_thread();

/// RAII: adds its lifetime to helped_seconds_this_thread(), replacing
/// whatever the helping nested inside it added, so nested helping is
/// counted once. ThreadPool::try_run_one wraps each helped task in one.
class HelpedTaskScope {
 public:
  HelpedTaskScope();
  ~HelpedTaskScope();

  HelpedTaskScope(const HelpedTaskScope&) = delete;
  HelpedTaskScope& operator=(const HelpedTaskScope&) = delete;

 private:
  double helped_before_;
  std::chrono::steady_clock::time_point start_;
};

/// RAII wall-clock timer: accumulates its lifetime into
/// `registry.add_timer(name, ...)` on destruction, less the time its
/// thread spent help-draining other tasks meanwhile — a join that runs
/// a whole other experiment root must not bill it to this scope.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string name,
                       MetricsRegistry& registry = MetricsRegistry::global())
      : name_(std::move(name)),
        registry_(registry),
        helped_at_start_(helped_seconds_this_thread()),
        start_(std::chrono::steady_clock::now()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    registry_.add_timer(name_,
                        std::chrono::duration<double>(elapsed).count() -
                            (helped_seconds_this_thread() - helped_at_start_));
  }

 private:
  std::string name_;
  MetricsRegistry& registry_;
  double helped_at_start_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace baffle
