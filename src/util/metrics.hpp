#pragma once
// Lightweight process-wide metrics registry: named monotonic counters
// and accumulating wall-clock timers.
//
// The evaluation hot path (Validator::validate, the parallel GEMM
// kernels, run_experiment's round loop) reports here so throughput
// claims are measured, not guessed. Recording is mutex-backed and
// intended for per-call granularity (validations, rounds, large
// kernels) — not per-element loops: a validator tallies its cache
// lookups itself and reports them once per validate(). Names are taken
// as string views, so recording builds no std::string once a metric
// exists. Dump the snapshot to CSV with MetricsRegistry::dump_csv or
// read single values in tests/benches.

#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
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
  void add_counter(std::string_view name, std::uint64_t delta = 1);

  /// counters[name] += delta for every pair, under one lock. A zero
  /// delta is skipped, so it creates no counter that add_counter would
  /// not have.
  void add_counters(
      std::initializer_list<std::pair<std::string_view, std::uint64_t>>
          deltas);

  /// timers[name] += seconds (and one sample).
  void add_timer(std::string_view name, double seconds);

  std::uint64_t counter(std::string_view name) const;
  /// Total accumulated seconds for `name` (0 when never recorded).
  double timer_seconds(std::string_view name) const;
  /// Number of samples accumulated into timer `name`.
  std::uint64_t timer_count(std::string_view name) const;
  /// Mean milliseconds per sample of timer `name` (0 when never
  /// recorded) — the per-round figure the CLI summaries print.
  double timer_mean_ms(std::string_view name) const;

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

  // std::less<> looks a string_view up without building a std::string.
  mutable Mutex mutex_;
  std::map<std::string, std::uint64_t, std::less<>> counters_
      BAFFLE_GUARDED_BY(mutex_);
  std::map<std::string, Timer, std::less<>> timers_ BAFFLE_GUARDED_BY(mutex_);
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
/// a whole other experiment root must not bill it to this scope. The
/// timer keeps a view of `name`, which must outlive it (the metric
/// constants of util/metric_names.hpp do).
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string_view name,
                       MetricsRegistry& registry = MetricsRegistry::global())
      : name_(name),
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
  std::string_view name_;
  MetricsRegistry& registry_;
  double helped_at_start_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace baffle
