// baffle_e2e — the binary of the end-to-end benchmark (README.md in
// this directory). run.py builds it, runs it, and turns its output into
// the benchmark's metrics; this program only executes workloads and
// reports raw measurements as one JSON object on the last stdout line.
//
//   baffle_e2e --mode=run    --workload=W --seed=N --seconds=S
//       Untraced: repeated set-ups, then the workload's timed
//       experiments through the library's own entry points
//       (run_experiment; the sweep's cell x rep experiment roots).
//   baffle_e2e --mode=trace  --workload=W --seed=N --seconds=S
//       Traced: a benchmark-owned replay of the round loop built from
//       public calls only, with spans around every layer boundary and
//       MetricsRegistry deltas around every evaluate and commit, plus the
//       untraced references it is checked and compared against.
//   baffle_e2e --mode=replay ...
//       Only the traced replay (run.py runs it at pool size 1 for the
//       single-worker baseline).
//
// Common flags: --smoke=1 shrinks every size to a seconds-long run;
// --spans=PATH writes the traced replay's spans as JSON lines.
//
// The load is one process and one closed-loop caller: round r+1 starts
// only after round r's checkpoint. Work is sized from --seconds through
// fixed nominal rates, so a seed always yields the same inputs.

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "attack/backdoor.hpp"
#include "exp/experiment.hpp"
#include "exp/sweep.hpp"
#include "metrics/confusion.hpp"
#include "net/round_driver.hpp"
#include "nn/train.hpp"
#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"
#include "util/metrics.hpp"
#include "util/task_graph.hpp"
#include "util/thread_pool.hpp"

namespace baffle::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// On-CPU seconds of every thread of the process so far. The kernel
/// leaves out time the thread waited for its CPU: time another process
/// ran there, and time the hypervisor gave the vCPU to another guest
/// (steal). run.py pins timed runs to one CPU, so this is wall time minus
/// exactly those waits.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) throw std::runtime_error("sched_getaffinity failed");
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Moves every thread of the process (the caller and the pool workers)
/// onto one CPU.
void pin_process(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  const std::unique_ptr<DIR, int (*)(DIR*)> tasks(opendir("/proc/self/task"), closedir);
  if (!tasks) throw std::runtime_error("cannot list /proc/self/task");
  while (const dirent* task = readdir(tasks.get())) {
    if (task->d_name[0] == '.') continue;
    const auto tid = static_cast<pid_t>(std::strtol(task->d_name, nullptr, 10));
    if (sched_setaffinity(tid, sizeof set, &set) != 0 && errno != ESRCH) {
      throw std::runtime_error("cannot pin the process to CPU " + std::to_string(cpu));
    }
  }
}

// ----------------------------------------------------------- host gauge

/// How fast the host runs one thread on this CPU right now. The host
/// slows single vCPUs, and sometimes all of them, in phases of seconds to
/// minutes, and on-CPU time cannot leave that out. A pass times a fixed
/// kernel of the benchmark's own: the register-blocked multiply-adds of a
/// GEMM micro-kernel on L1-resident panels, the instruction mix of the
/// library's training and validation GEMMs. It calls nothing of the
/// library, so a change to the library never moves it; only the host
/// does. On the reference box a pass takes ~4.2 ms on a calm vCPU, and
/// in slow phases its time rose with the workload's (log-log slope 0.87,
/// correlation 0.73 over 86 paired samples on four vCPUs).
class HostGauge {
 public:
  HostGauge()
      : block_(static_cast<float*>(std::aligned_alloc(kPage, kBlockBytes)),
               [](float* p) { std::free(p); }) {
    if (!block_) throw std::bad_alloc();
    float* a = block_.get();
    for (std::size_t i = 0; i < kDepth * kRows; ++i) a[i] = static_cast<float>(i % 7) * 0.25f - 0.75f;
    for (std::size_t i = 0; i < kDepth * kCols; ++i) {
      a[kOffB + i] = static_cast<float>(i % 5) * 1e-3f - 2e-3f;
    }
    pass();  // first touch of every page
  }

  /// Median on-CPU seconds of kPasses passes on the current CPU.
  double measure() {
    std::array<double, kPasses> t{};
    for (double& x : t) x = pass();
    std::sort(t.begin(), t.end());
    return t[kPasses / 2];
  }

 private:
  static constexpr std::size_t kPasses = 7;
  // A 4 x 16 tile of C += A (4 x kDepth) * B (kDepth x 16), both panels
  // L1-resident and packed the way a GEMM micro-kernel reads them.
  static constexpr std::size_t kRows = 4, kCols = 16, kDepth = 256, kSweeps = 3000;
  // The panels and the tile share one page-aligned block at fixed
  // offsets, so every run has the same layout (accesses 4 KiB apart
  // would alias in the store buffer).
  static constexpr std::size_t kOffB = kDepth * kRows + 80;
  static constexpr std::size_t kOffC = kOffB + kDepth * kCols + 96;
  static constexpr std::size_t kPage = 4096;
  // aligned_alloc wants a whole number of alignments.
  static constexpr std::size_t kBlockBytes =
      (sizeof(float) * (kOffC + kRows * kCols) + kPage - 1) / kPage * kPage;

  double pass() {
    const double c0 = process_cpu_s();
    float* a = block_.get();
    std::fill(a + kOffC, a + kOffC + kRows * kCols, 0.0f);
    multiply_adds(a, a + kOffB, a + kOffC);
    sink_ = sink_ + a[kOffC];
    return process_cpu_s() - c0;
  }

  static void multiply_adds(const float* a, const float* b, float* c) {
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      multiply_adds_avx2(a, b, c);
      return;
    }
#endif
    for (std::size_t sweep = 0; sweep < kSweeps; ++sweep) {
      for (std::size_t k = 0; k < kDepth; ++k) {
        for (std::size_t i = 0; i < kRows; ++i) {
          for (std::size_t j = 0; j < kCols; ++j) c[i * kCols + j] += a[k * kRows + i] * b[k * kCols + j];
        }
      }
    }
  }

#if defined(__x86_64__) || defined(__i386__)
  // Cache-line aligned and never inlined, so the kernel's code layout is
  // its own: where the linker places it must not change its speed.
  __attribute__((target("avx2,fma"), aligned(64), noinline)) static void multiply_adds_avx2(
      const float* a, const float* b, float* c) {
    __m256 acc[2 * kRows];
    for (std::size_t i = 0; i < 2 * kRows; ++i) acc[i] = _mm256_setzero_ps();
    for (std::size_t sweep = 0; sweep < kSweeps; ++sweep) {
      for (std::size_t k = 0; k < kDepth; ++k) {
        const __m256 b0 = _mm256_loadu_ps(b + k * kCols);
        const __m256 b1 = _mm256_loadu_ps(b + k * kCols + 8);
        for (std::size_t i = 0; i < kRows; ++i) {
          const __m256 ai = _mm256_broadcast_ss(a + k * kRows + i);
          acc[2 * i] = _mm256_fmadd_ps(ai, b0, acc[2 * i]);
          acc[2 * i + 1] = _mm256_fmadd_ps(ai, b1, acc[2 * i + 1]);
        }
      }
    }
    for (std::size_t i = 0; i < kRows; ++i) {
      _mm256_storeu_ps(c + i * kCols, acc[2 * i]);
      _mm256_storeu_ps(c + i * kCols + 8, acc[2 * i + 1]);
    }
  }
#endif

  std::unique_ptr<float[], void (*)(float*)> block_;
  volatile float sink_ = 0.0f;
};

/// Pins the process to `cpu` and runs `span` there between two gauge
/// measurements; returns their mean.
template <typename Span>
double gauged(HostGauge& gauge, int cpu, Span&& span) {
  pin_process(cpu);
  const double before = gauge.measure();
  span();
  return 0.5 * (before + gauge.measure());
}

// ---------------------------------------------------------------- JSON

/// Minimal streaming JSON writer: objects and arrays are opened and
/// closed explicitly; commas are inserted automatically.
class Json {
 public:
  Json& begin_object(const char* key = nullptr) { return open(key, '{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array(const char* key = nullptr) { return open(key, '['); }
  Json& end_array() { return close(']'); }

  Json& num(const char* key, double v) {
    prefix(key);
    if (std::isfinite(v)) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out_ += buf;
    } else {
      out_ += "null";
    }
    return *this;
  }
  Json& num(double v) { return num(nullptr, v); }
  Json& integer(const char* key, std::uint64_t v) {
    prefix(key);
    out_ += std::to_string(v);
    return *this;
  }
  Json& boolean(const char* key, bool v) {
    prefix(key);
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& str(const char* key, const std::string& v) {
    prefix(key);
    out_ += '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
    return *this;
  }
  Json& nums(const char* key, const std::vector<double>& vs) {
    begin_array(key);
    for (const double v : vs) num(v);
    return end_array();
  }
  const std::string& text() const { return out_; }

 private:
  Json& open(const char* key, char c) {
    prefix(key);
    out_ += c;
    first_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }
  void prefix(const char* key) {
    if (!first_) out_ += ',';
    first_ = false;
    if (key != nullptr) {
      out_ += '"';
      out_ += key;
      out_ += "\":";
    }
  }

  std::string out_;
  bool first_ = true;
};

// ------------------------------------------------------------ workloads

enum class Kind { kVisionInproc, kVisionTransport, kSweep };

struct Workload {
  const char* name;
  Kind kind;
  /// Nominal wall throughput on an x86-64 box (rounds/s for single-run
  /// workloads, experiments/s for the sweep): of an untraced run on one
  /// pool worker pinned to one CPU, and of a traced replay on four pool
  /// threads. Only sizes the work; the measured value is what the
  /// benchmark reports.
  double nominal_rate;
  double trace_rate;
};

constexpr Workload kWorkloads[] = {
    {"vision_inproc", Kind::kVisionInproc, 90.0, 300.0},
    {"vision_transport", Kind::kVisionTransport, 80.0, 250.0},
    {"sweep_grid", Kind::kSweep, 2.0, 0.0},
};

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Injections recur every kPoisonPeriod rounds once the defense is on.
constexpr std::size_t kDefenseStart = 20;
constexpr std::size_t kPoisonPeriod = 25;
/// Shortest single-run experiment: the defense window fills and two
/// injections are judged.
constexpr std::size_t kMinRounds = kDefenseStart + 2 * kPoisonPeriod;

/// The paper's headline configuration (BAFFLE C+S, ℓ = 20, q = 5,
/// pretrained start, accuracy tracking on) as one long vision
/// experiment. `attack_aux_samples = 0` keeps the attacker's wiring
/// reproducible through the public API, which is what lets the traced
/// replay match run_experiment round for round.
ExperimentConfig long_run_config(Kind kind, std::size_t rounds) {
  ExperimentConfig cfg;
  cfg.scenario = vision_scenario();
  cfg.rounds = rounds;
  cfg.defense_start = kDefenseStart;
  cfg.attack_aux_samples = 0;
  cfg.transport = kind == Kind::kVisionTransport;
  for (std::size_t r = kDefenseStart + kPoisonPeriod; r <= rounds;
       r += kPoisonPeriod) {
    cfg.schedule.poison_rounds.push_back(r);
  }
  return cfg;
}

constexpr std::size_t kSweepCells = 4;  // lookback {10, 20} x quorum {2, 5}

/// Paper-style grid of short stable-scenario vision experiments:
/// lookback x quorum. The q = 2 cells reject a large share of clean
/// rounds, driving the validator's reject/rollback path.
SweepSpec sweep_spec(std::uint64_t base_seed, std::size_t reps) {
  SweepSpec spec;
  spec.base.scenario = vision_scenario();
  spec.base.rounds = 50;
  spec.base.schedule = AttackSchedule::stable_scenario();
  spec.reps = reps;
  spec.base_seed = base_seed;
  auto lookback = [](std::size_t l) {
    return SweepValue{std::to_string(l), [l](ExperimentConfig& c) {
                        c.feedback.validator.lookback = l;
                      }};
  };
  auto quorum = [](std::size_t q) {
    return SweepValue{std::to_string(q),
                      [q](ExperimentConfig& c) { c.feedback.quorum = q; }};
  };
  spec.axes.push_back({"lookback", {lookback(10), lookback(20)}});
  spec.axes.push_back({"quorum", {quorum(2), quorum(5)}});
  return spec;
}

// -------------------------------------------------------------- records

/// FNV-1a over the timing-free fields of every RoundRecord.
std::string records_digest(const std::vector<RoundRecord>& rounds) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  for (const auto& r : rounds) {
    const std::uint64_t fields[] = {r.round, r.defense_active, r.poisoned,
                                    r.rejected, r.reject_votes,
                                    r.num_validators};
    mix(fields, sizeof fields);
    mix(&r.main_accuracy, sizeof r.main_accuracy);
    mix(&r.backdoor_accuracy, sizeof r.backdoor_accuracy);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

/// Rounds whose verdict fields or accuracies differ between two runs of
/// the same config (plus every round one run has and the other lacks).
std::size_t record_mismatches(const std::vector<RoundRecord>& a,
                              const std::vector<RoundRecord>& b) {
  std::size_t bad = std::max(a.size(), b.size()) - std::min(a.size(), b.size());
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    const bool same =
        x.round == y.round && x.defense_active == y.defense_active &&
        x.poisoned == y.poisoned && x.rejected == y.rejected &&
        x.reject_votes == y.reject_votes &&
        x.num_validators == y.num_validators &&
        x.main_accuracy == y.main_accuracy &&
        x.backdoor_accuracy == y.backdoor_accuracy;
    if (!same) ++bad;
  }
  return bad;
}

double mean_of(const std::vector<RoundRecord>& rounds,
               double RoundRecord::*field) {
  if (rounds.empty()) return 0.0;
  double s = 0.0;
  for (const auto& r : rounds) s += r.*field;
  return s / static_cast<double>(rounds.size());
}

// --------------------------------------------------------------- checks

/// Named output checks. A failed check marks the rounds it covers as
/// failed operations.
class Checks {
 public:
  void add(const std::string& name, bool ok, std::size_t rounds_covered) {
    entries_.push_back({name, ok, rounds_covered});
  }
  void write(Json& j) const {
    j.begin_array("checks");
    for (const auto& e : entries_) {
      j.begin_object()
          .str("name", e.name)
          .boolean("ok", e.ok)
          .integer("rounds", e.rounds)
          .end_object();
    }
    j.end_array();
  }

 private:
  struct Entry {
    std::string name;
    bool ok;
    std::size_t rounds;
  };
  std::vector<Entry> entries_;
};

// ------------------------------------------------------------- registry

/// The MetricsRegistry timers and counters the ledger reads, under their
/// registry names.
constexpr const char* kTimers[] = {
    "validator.validate",         "multi_eval.run",
    "task_graph.node.train",      "task_graph.node.validate",
    "task_graph.node.checkpoint", "task_graph.node.eval",
    "task_graph.node.experiment", "experiment.round_train",
    "experiment.round_eval",      "experiment.round_accuracy"};
constexpr const char* kCounters[] = {
    "prediction_cache.hits",   "prediction_cache.misses",
    "validator.candidate_reuse", "validator.model_materializations",
    "multi_eval.tiles",        "task_graph.tasks",
    "thread_pool.help_drained"};

/// Those values captured at one instant; the ledger works on deltas
/// between two captures.
struct RegistryProbe {
  std::array<double, std::size(kTimers)> timers{};
  std::array<std::uint64_t, std::size(kCounters)> counters{};

  static RegistryProbe now() {
    const auto& m = MetricsRegistry::global();
    RegistryProbe p;
    for (std::size_t i = 0; i < p.timers.size(); ++i) {
      p.timers[i] = m.timer_seconds(kTimers[i]);
    }
    for (std::size_t i = 0; i < p.counters.size(); ++i) {
      p.counters[i] = m.counter(kCounters[i]);
    }
    return p;
  }

  RegistryProbe operator-(const RegistryProbe& o) const {
    RegistryProbe d;
    for (std::size_t i = 0; i < timers.size(); ++i) {
      d.timers[i] = timers[i] - o.timers[i];
    }
    for (std::size_t i = 0; i < counters.size(); ++i) {
      d.counters[i] = counters[i] - o.counters[i];
    }
    return d;
  }

  RegistryProbe& operator+=(const RegistryProbe& o) {
    for (std::size_t i = 0; i < timers.size(); ++i) timers[i] += o.timers[i];
    for (std::size_t i = 0; i < counters.size(); ++i) {
      counters[i] += o.counters[i];
    }
    return *this;
  }

  /// Timers in seconds, counters as counts, keyed by registry name.
  void write(Json& j, const char* key) const {
    j.begin_object(key);
    for (std::size_t i = 0; i < timers.size(); ++i) j.num(kTimers[i], timers[i]);
    for (std::size_t i = 0; i < counters.size(); ++i) {
      j.integer(kCounters[i], counters[i]);
    }
    j.end_object();
  }
};

// ---------------------------------------------------------------- spans

/// In-memory span store. Spans are recorded at the benchmark's calls
/// into each module (and, through TracingProvider, around every client
/// update on the pool threads); nothing is written until the run ends.
/// A disabled recorder records nothing, so the same replay code runs
/// untraced for the tracing-overhead comparison.
class SpanRecorder {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = root
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t round = 0;  // 0 = set-up
    std::int32_t client = -1;
    std::uint32_t thread = 0;
    double seconds() const { return 1e-9 * static_cast<double>(end_ns - start_ns); }
  };

  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), origin_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span: opened at construction, recorded at destruction.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, std::uint32_t parent,
          std::uint32_t round, std::int32_t client = -1)
        : rec_(rec) {
      if (!rec_.enabled_) return;
      span_.id = rec_.next_id_.fetch_add(1, std::memory_order_relaxed);
      span_.parent = parent;
      span_.name = name;
      span_.round = round;
      span_.client = client;
      span_.start_ns = rec_.now_ns();
    }
    ~Scope() {
      if (!rec_.enabled_) return;
      span_.end_ns = rec_.now_ns();
      span_.thread = thread_index();
      rec_.push(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint32_t id() const { return span_.id; }

   private:
    SpanRecorder& rec_;
    Span span_;
  };

  /// Parent for spans opened on pool threads (the round's propose span).
  void set_pool_parent(std::uint32_t id, std::uint32_t round) {
    pool_parent_.store(id, std::memory_order_relaxed);
    pool_round_.store(round, std::memory_order_relaxed);
  }
  std::uint32_t pool_parent() const {
    return pool_parent_.load(std::memory_order_relaxed);
  }
  std::uint32_t pool_round() const {
    return pool_round_.load(std::memory_order_relaxed);
  }

  /// All spans, sorted by start time. Call after the traced work ended.
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out = spans_;
    std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
      return a.start_ns < b.start_ns;
    });
    return out;
  }

  void write_jsonl(const std::string& path, const char* workload) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    for (const auto& s : spans()) {
      Json j;
      j.begin_object()
          .str("workload", workload)
          .integer("id", s.id)
          .integer("parent", s.parent)
          .str("name", s.name)
          .integer("round", s.round)
          .integer("start_us", static_cast<std::uint64_t>(s.start_ns / 1000))
          .integer("end_us", static_cast<std::uint64_t>(s.end_ns / 1000))
          .integer("dur_us",
                   static_cast<std::uint64_t>((s.end_ns - s.start_ns) / 1000))
          .integer("thread", s.thread);
      if (s.client >= 0) j.integer("client", static_cast<std::uint64_t>(s.client));
      j.end_object();
      out << j.text() << '\n';
    }
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  static std::uint32_t thread_index() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index = next.fetch_add(1);
    return index;
  }
  void push(const Span& s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }

  const bool enabled_;
  const Clock::time_point origin_;
  std::atomic<std::uint32_t> next_id_{1};
  std::atomic<std::uint32_t> pool_parent_{0};
  std::atomic<std::uint32_t> pool_round_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// UpdateProvider decorator: one `fl.client_update` span per update_for
/// call, on whichever pool thread runs it. Forwards unchanged, so the
/// updates (and every result) are those of the wrapped provider.
class TracingProvider final : public UpdateProvider {
 public:
  TracingProvider(UpdateProvider& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  ParamVec update_for(std::size_t client_id, const Mlp& global,
                      Rng& rng) override {
    const SpanRecorder::Scope span(rec_, "fl.client_update",
                                   rec_.pool_parent(), rec_.pool_round(),
                                   static_cast<std::int32_t>(client_id));
    return inner_.update_for(client_id, global, rng);
  }
  ParamVec update_for(std::size_t client_id, const Mlp& global, Rng& rng,
                      TrainWorkspace& ws) override {
    const SpanRecorder::Scope span(rec_, "fl.client_update",
                                   rec_.pool_parent(), rec_.pool_round(),
                                   static_cast<std::int32_t>(client_id));
    return inner_.update_for(client_id, global, rng, ws);
  }

 private:
  UpdateProvider& inner_;
  SpanRecorder& rec_;
};

// --------------------------------------------------------------- set-up

struct SetupTimes {
  double build_scenario_s = 0.0;
  double pretrain_s = 0.0;
  double defense_s = 0.0;
  double cpu_s = 0.0;  // on-CPU seconds of the whole set-up
  double gauge_s = 0.0;  // host gauge around it (untraced runs)
  double total() const { return build_scenario_s + pretrain_s + defense_s; }
};

/// Everything run_experiment builds before its first round, built the
/// same way from the same seed: scenario, server, pretrained global
/// model, defense seeded with the initial model.
struct World {
  Rng rng;
  Scenario scenario;
  std::unique_ptr<FlServer> server;
  std::unique_ptr<BaffleDefense> defense;
  SetupTimes times;

  World(const ExperimentConfig& cfg, std::uint64_t seed, SpanRecorder& rec)
      : rng(seed) {
    const double c0 = process_cpu_s();
    auto t0 = Clock::now();
    {
      const SpanRecorder::Scope span(rec, "exp.build_scenario", 0, 0);
      scenario = build_scenario(cfg.scenario, rng);
      server = std::make_unique<FlServer>(scenario.arch, scenario.fl,
                                          rng.next_u64());
    }
    times.build_scenario_s = seconds_since(t0);
    t0 = Clock::now();
    if (cfg.stable_start) {
      const SpanRecorder::Scope span(rec, "nn.pretrain", 0, 0);
      TrainConfig pre;
      pre.epochs = cfg.pretrain_epochs;
      pre.batch_size = 64;
      pre.sgd.learning_rate = 0.05f;
      Rng pre_rng = rng.fork();
      train_sgd(server->global_model(), scenario.task.train.features(),
                scenario.task.train.labels(), pre, pre_rng);
    }
    times.pretrain_s = seconds_since(t0);
    t0 = Clock::now();
    {
      const SpanRecorder::Scope span(rec, "core.defense_init", 0, 0);
      defense = std::make_unique<BaffleDefense>(scenario.arch, cfg.feedback,
                                                scenario.server_holdout);
      defense->on_commit(server->version(),
                         server->global_model().parameters());
    }
    times.defense_s = seconds_since(t0);
    times.cpu_s = process_cpu_s() - c0;
  }
};

// --------------------------------------------------------------- replay

/// Places the attacker among the round's contributors exactly as
/// run_experiment does for a scheduled injection: if absent, it replaces
/// a uniformly drawn slot.
void ensure_member(std::vector<std::size_t>& ids, std::size_t member,
                   Rng& rng) {
  if (std::find(ids.begin(), ids.end(), member) != ids.end()) return;
  const auto slot = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
  ids[slot] = member;
}

/// Wall-clock totals of one replay, by layer (seconds).
struct Ledger {
  std::size_t rounds = 0;
  double loop_s = 0.0;  // first round start → last round end
  double sample_s = 0.0, propose_s = 0.0, evaluate_s = 0.0, commit_s = 0.0,
         finish_s = 0.0, accuracy_s = 0.0;
  double update_busy_s = 0.0;   // Σ client_update spans
  double update_union_s = 0.0;  // Σ per round: union of its update spans
  std::vector<double> update_ms;  // one per update_for call
  RegistryProbe registry;  // deltas around evaluate and commit, summed
  CommStats comm;
  std::uint64_t wire_bytes = 0;
  std::uint64_t protocol_rejects = 0;
};

struct ReplayResult {
  std::vector<RoundRecord> records;
  SetupTimes setup;
  Ledger ledger;
};

/// The benchmark-owned round loop: the calls run_experiment makes, in
/// the same order on the same Rng, issued serially (no pipelined
/// accuracy pass), with a span around each module call.
ReplayResult replay(const ExperimentConfig& cfg, std::uint64_t seed,
                    bool transport, SpanRecorder& rec) {
  if (cfg.attack_aux_samples != 0 || cfg.use_dba || cfg.schedule.adaptive ||
      cfg.separate_validators || cfg.validator_dropout > 0.0) {
    throw std::invalid_argument(
        "replay: only the plain model-replacement attacker without "
        "auxiliary samples is reproducible through the public API");
  }
  validate_feedback_config(cfg.feedback, cfg.scenario.clients_per_round);
  ReplayResult out;
  World w(cfg, seed, rec);
  out.setup = w.times;
  Scenario& sc = w.scenario;
  FlServer& server = *w.server;
  BaffleDefense& defense = *w.defense;

  const std::size_t attacker = sc.attacker_id;
  HonestUpdateProvider honest(&sc.clients, sc.fl.local_train);
  ModelReplacementConfig replacement;
  replacement.task = sc.backdoor;
  replacement.poison_fraction = cfg.attack_poison_fraction;
  replacement.boost = cfg.attack_boost > 0.0
                          ? cfg.attack_boost
                          : static_cast<double>(sc.fl.total_clients) /
                                sc.fl.global_lr;
  replacement.train = sc.fl.local_train;
  replacement.train.epochs = cfg.attack_epochs;
  replacement.train.sgd.learning_rate = cfg.attack_learning_rate;
  MaliciousUpdateProvider malicious(honest, attacker,
                                    sc.clients[attacker].data(),
                                    sc.task.backdoor_train, replacement);
  TracingProvider provider(malicious, rec);
  const std::unordered_set<std::size_t> malicious_ids{attacker};

  std::optional<InProcTransport> channel;
  std::optional<TransportRoundDriver> driver;
  if (transport) {
    channel.emplace();
    driver.emplace(*channel, server, defense, sc.clients, provider,
                   malicious_ids, cfg.malicious_vote);
  }

  const ClientSampler sampler(sc.fl.total_clients, sc.fl.clients_per_round);
  MlpEvalWorkspace accuracy_ws;
  Ledger& L = out.ledger;
  out.records.reserve(cfg.rounds);
  auto timed = [](double& acc, auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    acc += seconds_since(t0);
  };

  const auto loop_start = Clock::now();
  for (std::size_t r = 1; r <= cfg.rounds; ++r) {
    const auto rr = static_cast<std::uint32_t>(r);
    const SpanRecorder::Scope round_span(rec, "round", 0, rr);
    const std::uint32_t root = round_span.id();

    bool scheduled = false;
    std::vector<std::size_t> contributors;
    timed(L.sample_s, [&] {
      const SpanRecorder::Scope span(rec, "fl.sample", root, rr);
      scheduled = cfg.schedule.is_poison_round(r);
      contributors = sampler.sample_round(w.rng);
      if (scheduled) ensure_member(contributors, attacker, w.rng);
      malicious.arm(scheduled);
    });

    std::optional<FlServer::Proposal> proposal;
    const auto train_start = Clock::now();
    timed(L.propose_s, [&] {
      const SpanRecorder::Scope span(rec, transport ? "net.propose" : "fl.propose",
                                     root, rr);
      rec.set_pool_parent(span.id(), rr);
      proposal = driver ? driver->propose_round(contributors, w.rng)
                        : server.propose_round_with(contributors, provider,
                                                    w.rng);
    });
    const double train_s = seconds_since(train_start);

    const bool active = cfg.defense_enabled && r >= cfg.defense_start &&
                        defense.ready();
    FeedbackDecision decision;
    double eval_s = 0.0;
    if (active) {
      const auto before = RegistryProbe::now();
      const auto eval_start = Clock::now();
      timed(L.evaluate_s, [&] {
        const SpanRecorder::Scope span(
            rec, transport ? "net.evaluate" : "core.evaluate", root, rr);
        decision = driver ? driver->evaluate(*proposal, contributors)
                          : defense.evaluate(proposal->candidate_params,
                                             contributors, sc.clients,
                                             malicious_ids, cfg.malicious_vote);
      });
      eval_s = seconds_since(eval_start);
      L.registry += RegistryProbe::now() - before;
    }

    // Commit feedback promotes (or drops) each validator's candidate
    // evaluation, so the core counters are read around it too.
    const auto feedback_before = RegistryProbe::now();
    const bool rejected = active && decision.reject;
    std::uint64_t version = server.version();
    timed(L.commit_s, [&] {
      const SpanRecorder::Scope span(rec, "fl.commit", root, rr);
      if (rejected) {
        server.discard(*proposal);
        defense.on_reject();
      } else {
        version = server.commit(*proposal);
        defense.on_commit(version, proposal->candidate_params);
      }
    });
    if (driver) {
      timed(L.finish_s, [&] {
        const SpanRecorder::Scope span(rec, "net.finish", root, rr);
        driver->finish_round(*proposal, !rejected, version, decision);
      });
    }
    L.registry += RegistryProbe::now() - feedback_before;

    RoundRecord record;
    record.round = r;
    record.defense_active = active;
    record.poisoned = scheduled;
    record.rejected = rejected;
    record.reject_votes = decision.reject_votes;
    record.num_validators = decision.total_voters;
    record.train_ms = train_s * 1e3;
    record.eval_ms = eval_s * 1e3;
    if (cfg.track_accuracy) {
      timed(L.accuracy_s, [&] {
        const SpanRecorder::Scope span(rec, "nn.accuracy_eval", root, rr);
        record.main_accuracy =
            evaluate_confusion(server.global_model(), sc.task.test,
                               accuracy_ws)
                .accuracy();
        record.backdoor_accuracy = backdoor_accuracy(
            server.global_model(), sc.task.backdoor_test,
            sc.backdoor.target_class, accuracy_ws);
      });
    }
    out.records.push_back(record);
  }
  L.loop_s = seconds_since(loop_start);
  L.rounds = cfg.rounds;
  if (driver) {
    L.comm = driver->tracker().stats();
    L.wire_bytes = driver->wire_bytes();
    L.protocol_rejects =
        driver->round_server().protocol_stats().total_rejected();
  }

  // Client-update spans: per-call durations, busy sum, and per propose
  // span the union of its children's intervals (what the pool spent on
  // training; the rest of propose is rng forks, FedAvg and masking).
  if (rec.enabled()) {
    const auto spans = rec.spans();
    std::map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
        by_parent;
    for (const auto& s : spans) {
      if (std::strcmp(s.name, "fl.client_update") != 0) continue;
      L.update_ms.push_back(1e3 * s.seconds());
      L.update_busy_s += s.seconds();
      by_parent[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    for (auto& [parent, iv] : by_parent) {
      std::sort(iv.begin(), iv.end());
      std::int64_t covered = 0, cur_s = iv[0].first, cur_e = iv[0].second;
      for (const auto& [s, e] : iv) {
        if (s > cur_e) {
          covered += cur_e - cur_s;
          cur_s = s;
          cur_e = e;
        } else {
          cur_e = std::max(cur_e, e);
        }
      }
      covered += cur_e - cur_s;
      L.update_union_s += 1e-9 * static_cast<double>(covered);
    }
  }
  return out;
}

void write_ledger(Json& j, const char* key, const Ledger& L) {
  j.begin_object(key)
      .integer("rounds", L.rounds)
      .num("loop_s", L.loop_s)
      .num("sample_s", L.sample_s)
      .num("propose_s", L.propose_s)
      .num("evaluate_s", L.evaluate_s)
      .num("commit_s", L.commit_s)
      .num("finish_s", L.finish_s)
      .num("accuracy_s", L.accuracy_s)
      .num("update_busy_s", L.update_busy_s)
      .num("update_union_s", L.update_union_s)
      .nums("update_ms", L.update_ms);
  L.registry.write(j, "registry");
  j.begin_object("comm")
      .integer("download", L.comm.model_download_bytes)
      .integer("upload", L.comm.update_upload_bytes)
      .integer("history", L.comm.history_bytes)
      .integer("control", L.comm.control_bytes)
      .integer("total", L.comm.total_bytes())
      .integer("rounds", L.comm.rounds)
      .end_object()
      .integer("wire_bytes", L.wire_bytes)
      .integer("protocol_rejects", L.protocol_rejects)
      .end_object();
}

void write_setup(Json& j, const char* key, const SetupTimes& t) {
  j.begin_object(key)
      .num("build_scenario_s", t.build_scenario_s)
      .num("pretrain_s", t.pretrain_s)
      .num("defense_s", t.defense_s)
      .num("total_s", t.total())
      .num("cpu_s", t.cpu_s)
      .num("gauge_s", t.gauge_s)
      .end_object();
}

// ---------------------------------------------------------------- sizes

struct Sizes {
  std::size_t setups = 9;       // traced set-up repetitions (median reported)
  std::size_t reps = 32;        // untraced repetitions of the experiment
  std::size_t rounds = 0;       // rounds per untraced repetition
  std::size_t trace_rounds = 0; // rounds of the traced replays
  std::size_t sweeps = 0;       // untraced sweeps (sweep workload)
  std::size_t sweep_reps = 2;   // reps per sweep cell
};

Sizes size_for(const Workload& w, double seconds, bool smoke) {
  Sizes s;
  if (smoke) {
    s.setups = 1;
    s.reps = 2;
    s.sweeps = 1;
    s.sweep_reps = 1;
    s.rounds = s.trace_rounds = kMinRounds;
  } else if (w.kind == Kind::kSweep) {
    const double experiments = w.nominal_rate * seconds;
    s.sweeps = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(experiments / static_cast<double>(
                                                                 kSweepCells * s.sweep_reps))));
  } else {
    // Untraced: `reps` repetitions fill the run. Traced: the replays,
    // references and the 1-thread baseline (~3 replays' worth) share it.
    s.rounds = std::max(kMinRounds, static_cast<std::size_t>(
                                        w.nominal_rate * seconds / static_cast<double>(s.reps)));
    const double trace_passes = w.kind == Kind::kVisionTransport ? 8.0 : 6.0;
    s.trace_rounds = std::max(kMinRounds,
                              static_cast<std::size_t>(w.trace_rate * seconds / trace_passes));
  }
  return s;
}

// ----------------------------------------------------------------- misc

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void write_fingerprint(Json& j) {
  const char* forced = std::getenv("BAFFLE_FORCE_SCALAR");
  const simd::Isa isa = simd::active_isa();
  bool avx512f = false;
#if defined(__x86_64__) || defined(__i386__)
  avx512f = isa == simd::Isa::kVector && __builtin_cpu_supports("avx512f");
#endif
  j.begin_object("fingerprint")
      .integer("nproc", std::thread::hardware_concurrency())
      .integer("pool_threads", ThreadPool::global().size())
      .str("isa", simd::isa_name(isa))
      .str("kernel_table", kernels::active_table().name)
      .boolean("avx512f_eval", avx512f)
      .boolean("force_scalar_env", forced != nullptr && std::strcmp(forced, "0") != 0)
      .str("build_type", BAFFLE_E2E_BUILD_TYPE)
      .str("compiler", BAFFLE_E2E_COMPILER)
      .end_object();
}

std::vector<double> round_ms(const std::vector<RoundRecord>& rounds) {
  std::vector<double> out;
  out.reserve(rounds.size());
  for (const auto& r : rounds) out.push_back(r.train_ms + r.eval_ms);
  return out;
}

void write_quality(Json& j, const std::vector<RoundRecord>& rounds) {
  const DetectionRates rates = compute_detection_rates(rounds);
  j.num("fp_rate", rates.fp_rate)
      .num("fn_rate", rates.fn_rate)
      .num("main_accuracy", mean_of(rounds, &RoundRecord::main_accuracy))
      .num("backdoor_accuracy",
           mean_of(rounds, &RoundRecord::backdoor_accuracy));
}

/// `n` set-ups one after another.
void time_setups(const ExperimentConfig& cfg, std::uint64_t seed, std::size_t n,
                 SpanRecorder& rec, std::vector<SetupTimes>& out) {
  for (std::size_t i = 0; i < n; ++i) out.push_back(World(cfg, seed, rec).times);
}

void write_setups(Json& j, const std::vector<SetupTimes>& setups) {
  j.begin_array("setups");
  for (const auto& t : setups) write_setup(j, nullptr, t);
  j.end_array();
}

// ---------------------------------------------------------------- modes

/// One untraced cell x rep experiment of a sweep.
struct SweepRun {
  std::uint64_t seed = 0;
  ExperimentResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;    // serial runs only
  double gauge_s = 0.0;  // serial runs with a gauge only
};

struct Grid {
  std::size_t cells = 0;
  std::vector<SweepRun> runs;  // cell-major: run c * reps + i
  double wall_s = 0.0;
};

/// Runs every cell x rep of `spec` — as experiment roots on one TaskGraph,
/// the structure of run_sweep in parallel mode, or one after another, as
/// its serial cell loop does — keeping each experiment's RoundRecords and
/// wall time, which run_sweep drops. A serial run also times each
/// experiment's on-CPU seconds and, given a gauge, runs experiment e
/// gauged on cpus[(offset + e) % n], so every cell meets every CPU over
/// a run.
Grid run_grid(const SweepSpec& spec, SpanRecorder& rec, bool parallel,
              HostGauge* gauge = nullptr, const std::vector<int>& cpus = {},
              std::size_t offset = 0) {
  const std::vector<SweepCell> cells = enumerate_cells(spec);
  Grid grid;
  grid.cells = cells.size();
  std::vector<SweepRun>& runs = grid.runs;
  runs.resize(cells.size() * spec.reps);
  const auto t0 = Clock::now();
  {
    TaskGraph graph;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      for (std::size_t i = 0; i < spec.reps; ++i) {
        auto experiment = [&, c, i] {
          SweepRun& run = runs[c * spec.reps + i];
          run.seed = cells[c].seed + static_cast<std::uint64_t>(i);
          const SpanRecorder::Scope span(rec, "exp.experiment", 0, 0,
                                         static_cast<std::int32_t>(c * spec.reps + i));
          const auto e0 = Clock::now();
          run.result = run_experiment(cells[c].config, run.seed);
          run.wall_s = seconds_since(e0);
        };
        if (parallel) {
          graph.add(TaskNodeKind::kExperiment, experiment);
        } else {
          SweepRun& run = runs[c * spec.reps + i];
          auto timed = [&] {
            const double e0 = process_cpu_s();
            experiment();
            run.cpu_s = process_cpu_s() - e0;
          };
          if (gauge) {
            run.gauge_s = gauged(*gauge, cpus[(offset + c * spec.reps + i) % cpus.size()], timed);
          } else {
            timed();
          }
        }
      }
    }
    graph.wait_all();
  }
  grid.wall_s = seconds_since(t0);
  return grid;
}

std::vector<std::string> grid_digests(const Grid& grid) {
  std::vector<std::string> out;
  for (const auto& run : grid.runs) out.push_back(records_digest(run.result.rounds));
  return out;
}

void write_grid(Json& j, const Grid& grid, std::size_t& rounds_total) {
  const std::vector<SweepRun>& runs = grid.runs;
  j.begin_object()
      .num("wall_s", grid.wall_s)
      .integer("cells", grid.cells)
      .integer("experiments", runs.size());
  std::size_t rounds = 0;
  std::vector<double> ms, exp_wall, exp_cpu, exp_gauge;
  double fp = 0, fn = 0, main = 0, bd = 0;
  for (const auto& run : runs) {
    rounds += run.result.rounds.size();
    const auto rm = round_ms(run.result.rounds);
    ms.insert(ms.end(), rm.begin(), rm.end());
    exp_wall.push_back(run.wall_s);
    exp_cpu.push_back(run.cpu_s);
    exp_gauge.push_back(run.gauge_s);
    fp += run.result.rates.fp_rate;
    fn += run.result.rates.fn_rate;
    main += run.result.final_main_accuracy;
    bd += run.result.final_backdoor_accuracy;
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, runs.size()));
  j.integer("rounds", rounds)
      .num("fp_rate", fp / n)
      .num("fn_rate", fn / n)
      .num("main_accuracy", main / n)
      .num("backdoor_accuracy", bd / n)
      .nums("round_ms", ms)
      .nums("experiment_s", exp_wall)
      .nums("experiment_cpu_s", exp_cpu)
      .nums("experiment_gauge_s", exp_gauge);
  j.begin_array("digests");
  for (const auto& d : grid_digests(grid)) j.str(nullptr, d);
  j.end_array();
  j.end_object();
  rounds_total += rounds;
}

struct Args {
  Clock::time_point started = Clock::now();
  std::string mode = "run";
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;
  std::string spans_path;
};

/// Work is sized for --seconds on the reference box. On a host slower
/// than that the untraced run stops repeating once it has used 1.1 x
/// --seconds, so a run's length stays bounded. A cut drops only
/// repetitions of inputs that already ran: it changes sample counts,
/// never the inputs.
bool over_budget(const Args& a) {
  return seconds_since(a.started) > 1.1 * a.seconds;
}

void mode_run(const Workload& w, const Args& a, Json& j) {
  const Sizes s = size_for(w, a.seconds, a.smoke);
  Checks checks;
  std::size_t attempted = 0;
  // Set-ups and timed spans alternate through the run, so both are
  // sampled in every phase of the host the run sees; run.py keeps the
  // fastest samples of each. The host slows single vCPUs more often than
  // all at once, so each span runs pinned to the next CPU in turn, between
  // two gauge measurements on that CPU.
  const std::vector<int> cpus = allowed_cpus();
  j.integer("timing_cpus", cpus.size());
  HostGauge gauge;
  if (w.kind == Kind::kSweep) {
    // Every sweep but the last has its own base seed derived from --seed:
    // the distinct sweeps always run and their pooled quality is the
    // result (a sweep's 16 experiments alone vary too much from seed to
    // seed). The last repeats the first and must reproduce it byte for
    // byte.
    SpanRecorder off(false);
    const std::size_t distinct = std::max<std::size_t>(1, s.sweeps - 1);
    j.integer("distinct_sweeps", distinct);
    std::vector<std::vector<std::string>> firsts;
    std::vector<SetupTimes> setups;
    j.begin_array("sweeps");
    for (std::size_t k = 0; k < s.sweeps && !(k >= distinct && over_budget(a));
         ++k) {
      const std::size_t first = setups.size();
      const double g = gauged(gauge, cpus[k % cpus.size()], [&] {
        time_setups(sweep_spec(a.seed * 1000, s.sweep_reps).base, a.seed, 2, off, setups);
      });
      for (std::size_t i = first; i < setups.size(); ++i) setups[i].gauge_s = g;
      const Grid grid = run_grid(sweep_spec(a.seed * 1000 + k % distinct, s.sweep_reps),
                                 off, /*parallel=*/false, &gauge, cpus, k);
      write_grid(j, grid, attempted);
      if (k < distinct) {
        firsts.push_back(grid_digests(grid));
      } else {
        checks.add("repeat_sweep_digest", grid_digests(grid) == firsts[k % distinct],
                   grid.runs.size());
      }
    }
    j.end_array();
    write_setups(j, setups);
  } else {
    // Repetitions cycle through a few seeds derived from --seed, each run
    // twice: many short repetitions let run.py time the fast phases,
    // pooling the distinct seeds steadies the quality outputs, and every
    // pair checks that one config and seed reproduce byte for byte.
    const ExperimentConfig cfg = long_run_config(w.kind, s.rounds);
    SpanRecorder off(false);
    j.integer("rounds_per_rep", s.rounds);
    const std::size_t distinct = std::max<std::size_t>(1, s.reps / 2);
    std::vector<ExperimentResult> results;
    std::vector<SetupTimes> setups;
    std::vector<double> walls, cpu_times, gauges;
    for (std::size_t i = 0; i < s.reps && !(i >= distinct && over_budget(a));
         ++i) {
      // The set-up and the repetition share one CPU and one gauge.
      gauges.push_back(gauged(gauge, cpus[i % cpus.size()], [&] {
        time_setups(cfg, a.seed, 1, off, setups);
        const auto t0 = Clock::now();
        const double c0 = process_cpu_s();
        results.push_back(run_experiment(cfg, a.seed * 1000 + i % distinct));
        walls.push_back(seconds_since(t0));
        cpu_times.push_back(process_cpu_s() - c0);
      }));
      setups.back().gauge_s = gauges.back();
      attempted += results.back().rounds.size();
    }
    write_setups(j, setups);
    j.nums("rep_wall_s", walls);
    j.nums("rep_cpu_s", cpu_times);
    j.nums("rep_gauge_s", gauges);
    std::vector<double> ms;
    for (const auto& r : results) {
      const auto rm = round_ms(r.rounds);
      ms.insert(ms.end(), rm.begin(), rm.end());
    }
    j.nums("round_ms", ms);
    std::vector<RoundRecord> pooled;
    j.begin_array("digests");
    for (std::size_t i = 0; i < std::min(distinct, results.size()); ++i) {
      const auto& r = results[i];
      pooled.insert(pooled.end(), r.rounds.begin(), r.rounds.end());
      j.str(nullptr, records_digest(r.rounds));
      checks.add("fn_rate_zero",
                 r.rates.fn_rate == 0.0 && r.rates.poisoned_rounds > 0,
                 r.rounds.size());
    }
    j.end_array();
    write_quality(j, pooled);
    for (std::size_t i = distinct; i < results.size(); ++i) {
      checks.add("repeat_digest",
                 records_digest(results[i].rounds) ==
                     records_digest(results[i % distinct].rounds),
                 results[i].rounds.size());
    }
    const auto& first = results.front();
    if (w.kind == Kind::kVisionTransport) {
      j.integer("wire_bytes", first.wire_bytes)
          .integer("comm_total", first.comm.total_bytes());
      checks.add("comm_equals_wire",
                 first.comm.total_bytes() == first.wire_bytes &&
                     first.wire_bytes > 0,
                 first.rounds.size());
      // DESIGN.md §13: the transport round engine reproduces the
      // in-process one. Same config and seed, channels off.
      ExperimentConfig inproc = cfg;
      inproc.transport = false;
      const ExperimentResult ref = run_experiment(inproc, a.seed * 1000);
      attempted += ref.rounds.size();
      const std::size_t bad = record_mismatches(first.rounds, ref.rounds);
      checks.add("transport_equals_inproc", bad == 0, std::max<std::size_t>(bad, 1));
    }
  }
  j.integer("attempted", attempted);
  checks.write(j);
}

void write_replay(Json& j, const char* key, const ReplayResult& r) {
  j.begin_object(key);
  write_setup(j, "setup", r.setup);
  write_ledger(j, "ledger", r.ledger);
  j.str("digest", records_digest(r.records));
  j.end_object();
}

void mode_trace(const Workload& w, const Args& a, Json& j, bool replay_only) {
  const Sizes s = size_for(w, a.seconds, a.smoke);
  Checks checks;
  std::size_t attempted = 0;
  SpanRecorder rec(true);

  if (w.kind == Kind::kSweep) {
    const SweepSpec spec = sweep_spec(a.seed * 1000, s.sweep_reps);
    // Set-up layers, traced, on the sweep's base config.
    std::vector<SetupTimes> setups;
    time_setups(spec.base, a.seed, s.setups, rec, setups);
    write_setups(j, setups);
    const auto before = RegistryProbe::now();
    const Grid grid = run_grid(spec, rec, /*parallel=*/true);
    const std::vector<SweepRun>& runs = grid.runs;
    const RegistryProbe delta = RegistryProbe::now() - before;
    j.begin_array("sweeps");
    write_grid(j, grid, attempted);
    j.end_array();
    delta.write(j, "registry");

    // The grid above must be the computation run_sweep performs.
    const auto t0 = Clock::now();
    const SweepResult ref = run_sweep(spec, /*parallel=*/true);
    j.num("run_sweep_wall_s", seconds_since(t0));
    std::size_t bad = 0, k = 0;
    for (const auto& cell : ref.cells) {
      for (const auto& row : cell.reps) {
        const SweepRun& run = runs.at(k++);
        const ExperimentResult& mine = run.result;
        if (row.seed != run.seed ||
            row.rates.fp_rate != mine.rates.fp_rate ||
            row.rates.fn_rate != mine.rates.fn_rate ||
            row.final_main_accuracy != mine.final_main_accuracy ||
            row.final_backdoor_accuracy != mine.final_backdoor_accuracy) {
          ++bad;
        }
      }
    }
    checks.add("grid_equals_run_sweep", bad == 0 && k == runs.size(),
               std::max<std::size_t>(bad, 1));
  } else {
    const bool transport = w.kind == Kind::kVisionTransport;
    ExperimentConfig cfg = long_run_config(w.kind, s.trace_rounds);
    j.integer("rounds", s.trace_rounds);

    // Warm-up (pool threads, allocator, page cache), discarded: every
    // measured pass below then starts from the same warm state.
    {
      SpanRecorder off(false);
      replay(long_run_config(w.kind, kMinRounds), a.seed, transport, off);
    }

    std::optional<ExperimentResult> ref;
    std::optional<ReplayResult> plain;
    if (!replay_only) {
      // Untraced references: the library's own round loop (pipelined),
      // and the same replay with the recorder off.
      const auto before = RegistryProbe::now();
      const auto t0 = Clock::now();
      ref = run_experiment(cfg, a.seed);
      const double ref_wall = seconds_since(t0);
      const RegistryProbe delta = RegistryProbe::now() - before;
      attempted += ref->rounds.size();
      j.begin_object("reference")
          .num("wall_s", ref_wall)
          .str("digest", records_digest(ref->rounds));
      write_quality(j, ref->rounds);
      delta.write(j, "registry");
      j.end_object();

      SpanRecorder off(false);
      plain = replay(cfg, a.seed, transport, off);
      attempted += plain->records.size();
      write_replay(j, "untraced_replay", *plain);
    }

    const ReplayResult traced = replay(cfg, a.seed, transport, rec);
    attempted += traced.records.size();
    write_replay(j, "traced", traced);

    if (!replay_only) {
      const std::size_t bad = record_mismatches(traced.records, ref->rounds);
      checks.add("replay_verdicts_equal_run", bad == 0,
                 std::max<std::size_t>(bad, 1));
      checks.add("untraced_replay_equals_traced",
                 record_mismatches(plain->records, traced.records) == 0,
                 plain->records.size());
      checks.add("fn_rate_zero",
                 ref->rates.fn_rate == 0.0 && ref->rates.poisoned_rounds > 0,
                 ref->rounds.size());

      if (transport) {
        const Ledger& L = traced.ledger;
        checks.add("comm_equals_wire",
                   L.comm.total_bytes() == L.wire_bytes && L.wire_bytes > 0,
                   traced.records.size());
        checks.add("protocol_rejects_zero", L.protocol_rejects == 0,
                   std::max<std::uint64_t>(L.protocol_rejects, 1));
        checks.add("run_comm_equals_wire",
                   ref->comm.total_bytes() == ref->wire_bytes,
                   ref->rounds.size());
        // Same rounds in process: the difference is the net layer.
        SpanRecorder inproc_rec(true);
        const ReplayResult inproc = replay(cfg, a.seed, false, inproc_rec);
        attempted += inproc.records.size();
        write_replay(j, "inproc_replay", inproc);
        checks.add("transport_equals_inproc",
                   record_mismatches(inproc.records, traced.records) == 0,
                   inproc.records.size());
      }
    }
  }
  if (!a.spans_path.empty()) rec.write_jsonl(a.spans_path, w.name);
  j.integer("attempted", attempted);
  checks.write(j);
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    if (key == "mode") a.mode = val;
    else if (key == "workload") a.workload = val;
    else if (key == "seed") a.seed = std::stoull(val);
    else if (key == "seconds") a.seconds = std::stod(val);
    else if (key == "smoke") a.smoke = val != "0";
    else if (key == "spans") a.spans_path = val;
    else return false;
  }
  return true;
}

int main_impl(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: baffle_e2e --mode=run|trace|replay --workload=NAME "
                 "--seed=N --seconds=S [--smoke=1] [--spans=PATH]\n");
    return 2;
  }
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "baffle_e2e: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  Json j;
  j.begin_object().str("workload", w->name).str("mode", a.mode).integer("seed", a.seed);
  write_fingerprint(j);
  if (a.mode == "run") {
    mode_run(*w, a, j);
  } else if ((a.mode == "trace" || a.mode == "replay") &&
             !(w->kind == Kind::kSweep && a.mode == "replay")) {
    mode_trace(*w, a, j, a.mode == "replay");
  } else {
    std::fprintf(stderr, "baffle_e2e: no mode '%s' for workload '%s'\n",
                 a.mode.c_str(), w->name);
    return 2;
  }
  j.num("peak_rss_mb", peak_rss_mb());
  j.end_object();
  std::printf("%s\n", j.text().c_str());
  return 0;
}

}  // namespace
}  // namespace baffle::e2e

int main(int argc, char** argv) {
  try {
    return baffle::e2e::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "baffle_e2e: %s\n", e.what());
    return 1;
  }
}
