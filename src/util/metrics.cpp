#include "util/metrics.hpp"

#include "util/csv.hpp"

namespace baffle {

namespace {
thread_local double t_helped_seconds = 0.0;
}  // namespace

double helped_seconds_this_thread() { return t_helped_seconds; }

HelpedTaskScope::HelpedTaskScope()
    : helped_before_(t_helped_seconds),
      start_(std::chrono::steady_clock::now()) {}

HelpedTaskScope::~HelpedTaskScope() {
  t_helped_seconds =
      helped_before_ + std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start_)
                           .count();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

namespace {

/// map[name], building the std::string key only when `name` is new.
template <class Map>
typename Map::mapped_type& entry(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), typename Map::mapped_type{}).first;
  }
  return it->second;
}

}  // namespace

void MetricsRegistry::add_counter(std::string_view name,
                                  std::uint64_t delta) {
  MutexLock lock(mutex_);
  entry(counters_, name) += delta;
}

void MetricsRegistry::add_counters(
    std::initializer_list<std::pair<std::string_view, std::uint64_t>>
        deltas) {
  MutexLock lock(mutex_);
  for (const auto& [name, delta] : deltas) {
    if (delta != 0) entry(counters_, name) += delta;
  }
}

void MetricsRegistry::add_timer(std::string_view name, double seconds) {
  MutexLock lock(mutex_);
  Timer& t = entry(timers_, name);
  ++t.count;
  t.total_seconds += seconds;
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  MutexLock lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::timer_seconds(std::string_view name) const {
  MutexLock lock(mutex_);
  const auto it = timers_.find(name);
  return it == timers_.end() ? 0.0 : it->second.total_seconds;
}

std::uint64_t MetricsRegistry::timer_count(std::string_view name) const {
  MutexLock lock(mutex_);
  const auto it = timers_.find(name);
  return it == timers_.end() ? 0 : it->second.count;
}

double MetricsRegistry::timer_mean_ms(std::string_view name) const {
  MutexLock lock(mutex_);
  const auto it = timers_.find(name);
  if (it == timers_.end() || it->second.count == 0) return 0.0;
  return it->second.total_seconds * 1e3 /
         static_cast<double>(it->second.count);
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  MutexLock lock(mutex_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + timers_.size());
  for (const auto& [name, value] : counters_) {
    out.push_back({name, "counter", value, 0.0});
  }
  for (const auto& [name, timer] : timers_) {
    out.push_back({name, "timer", timer.count, timer.total_seconds});
  }
  return out;
}

void MetricsRegistry::dump_csv(const std::string& path) const {
  CsvWriter csv(path, {"kind", "name", "count", "total_seconds"});
  for (const auto& sample : snapshot()) {
    csv.row({sample.kind, sample.name, std::to_string(sample.count),
             CsvWriter::num(sample.total_seconds)});
  }
}

void MetricsRegistry::reset() {
  MutexLock lock(mutex_);
  counters_.clear();
  timers_.clear();
}

}  // namespace baffle
