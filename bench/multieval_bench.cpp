// BM_MultiModelEval — cold-window evaluation cost: all ℓ+1 history
// models of a VALIDATE round scored on the validator's dataset, swept
// over the paper's look-back sizes ℓ (DESIGN.md §14, §17).
//
// Arms:
//   sequential   the engine's test oracle, one model at a time: the
//                training forward over the whole holdout, then each
//                row's first maximum (tests/support/predict_oracle);
//   fp32         MultiModelEval::predict_many on a one-worker global
//                pool (ScopedGlobalPool), which runs the tile loop
//                inline — one shared packed input, fused layer GEMMs
//                per model chunk (bit-identical predictions to
//                sequential, by construction);
//   fp32_par     the same engine on the process pool (BAFFLE_THREADS),
//                the tile sweep fanned out across its workers.
//
// Parity is the gate: fp32 predictions must equal sequential ones
// exactly, and the parallel arm's predictions must be BYTE-EQUAL to the
// serial arm's (thread-count invariance, DESIGN.md §17). Prints the
// sweep table and writes BENCH_multieval.json; exit is nonzero whenever
// parity or bit-identity fails, and — on full (non-smoke) runs at
// ℓ ≥ 10 — when the parallel fp32 arm misses 2x over serial fp32. The
// speed gate is enforced only with ≥ 4 hardware cores AND a ≥ 4-thread
// pool: threading cannot pay on a starved container, so a 1-core CI box
// must still report bit_identical=true without a spurious gate failure.
// Before the first timed row a full run spins the pool's threads for
// kWarmUpSeconds: on an idle VM the first rows otherwise timed the
// parallel arm at ~1.0x, a cold host rather than the engine.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "core/history.hpp"
#include "data/synth.hpp"
#include "nn/multi_eval.hpp"
#include "support/predict_oracle.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace baffle;

constexpr std::size_t kLookbacks[] = {2, 10, 20, 40};
constexpr std::size_t kMaxLookback = 40;
constexpr double kWarmUpSeconds = 2.0;

struct BenchSetup {
  Dataset holdout;
  MlpConfig arch;
  std::vector<ParamVec> chain;  // chain[v] = parameters of version v
  std::size_t warmup = 1;
  std::size_t timed = 7;
};

BenchSetup make_setup(bool smoke) {
  Rng rng(404);
  SynthTaskConfig cfg = synth_vision10_config();
  cfg.train_per_class = 1;  // only the test split is used
  cfg.test_per_class = smoke ? 50 : 1000;
  const SynthTask task = make_synth_task(cfg, rng);

  BenchSetup s;
  s.arch = MlpConfig{{cfg.dim, 128, cfg.num_classes}};
  s.holdout = task.test;
  if (smoke) s.timed = 1;

  Mlp model(s.arch);
  model.init(rng);
  ParamVec params = model.parameters();
  s.chain.push_back(params);
  for (std::size_t v = 1; v <= kMaxLookback; ++v) {
    for (float& p : params) p += static_cast<float>(rng.normal(0.0, 0.05));
    s.chain.push_back(params);
  }
  return s;
}

using PredTable = std::vector<std::vector<std::size_t>>;  // model × sample

/// Spins the threads a global-pool parallel_for fans out to (the
/// caller and pool.size() − 1 workers), the ones the parallel arm runs
/// on, until `seconds` have passed.
void warm_up_pool(double seconds) {
  using clock = std::chrono::steady_clock;
  const auto until =
      clock::now() + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double>(seconds));
  ThreadPool& pool = ThreadPool::global();
  pool.parallel_for(pool.size(), [&](std::size_t) {
    while (clock::now() < until) {
    }
  });
}

double median(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct SweepRow {
  std::size_t lookback = 0;
  double sequential_ms = 0.0;
  double fp32_ms = 0.0;
  double fp32_par_ms = 0.0;
  // Medians of the PER-REPETITION baseline/arm ratios — on a host with
  // bursty steal time this pairs each arm sample with the baseline
  // sample measured microseconds before it, so load spikes cancel
  // instead of landing on one arm's median. fp32_speedup is over the
  // sequential arm; fp32_par_speedup is over the serial tile loop
  // (pure threading gain).
  double fp32_speedup = 0.0;
  double fp32_par_speedup = 0.0;
  bool parity_ok = false;
  bool bit_identical = false;
};

/// One INTERLEAVED measurement of the three arms: every repetition
/// times sequential, the serial engine and the parallel engine back to
/// back, and each arm's median is taken across repetitions. This host's
/// clock drifts on the scale of a whole arm's repetition loop (shared
/// core, frequency scaling), so measuring the arms in separate phases
/// systematically biases whichever arm lands on the slow stretch;
/// interleaving exposes every arm to the same drift.
void run_row(const BenchSetup& s, std::size_t models, PredTable& seq,
             PredTable& fp32, PredTable& fp32p, SweepRow& row) {
  Mlp model(s.arch);
  MultiModelEval engine(s.arch);
  engine.bind(s.holdout.features());
  std::vector<MultiEvalModel> bfp(models), pfp(models);
  for (std::size_t v = 0; v < models; ++v) {
    bfp[v] = MultiEvalModel{s.chain[v], fp32[v]};
    pfp[v] = MultiEvalModel{s.chain[v], fp32p[v]};
  }
  // Inner iterations stretch every timed sample to tens of
  // milliseconds: this host steals CPU in ~10 ms chunks, and a chunk
  // landing inside a short sample inflates it far more (relatively)
  // than a long one, which systematically compresses the short arms'
  // ratios. All arms of one repetition share the same iteration count.
  const std::size_t iters = models <= 10 ? 4 : (models <= 21 ? 2 : 1);
  std::vector<double> ms_seq, ms_fp32, ms_fp32p;
  using clock = std::chrono::steady_clock;
  const auto lap = [&](clock::time_point& t) {
    const auto t1 = clock::now();
    const double d = std::chrono::duration<double, std::milli>(t1 - t).count();
    t = t1;
    return d / static_cast<double>(iters);
  };
  const auto engine_arm = [&](std::vector<MultiEvalModel>& batch,
                              clock::time_point& t) {
    for (std::size_t it = 0; it < iters; ++it) engine.predict_many(batch);
    return lap(t);
  };
  for (std::size_t rep = 0; rep < s.warmup + s.timed; ++rep) {
    auto t = clock::now();
    for (std::size_t it = 0; it < iters; ++it) {
      for (std::size_t v = 0; v < models; ++v) {
        model.set_parameters(s.chain[v]);
        seq[v] = oracle_predict(model, s.holdout.features());
      }
    }
    const double d_seq = lap(t);
    double d_fp32 = 0.0;
    {
      // The serial arm: a one-worker pool runs the tile loop inline.
      // Built and torn down outside the timed laps.
      const ScopedGlobalPool one_worker(1);
      t = clock::now();
      d_fp32 = engine_arm(bfp, t);
    }
    t = clock::now();
    const double d_fp32p = engine_arm(pfp, t);
    if (rep >= s.warmup) {
      ms_seq.push_back(d_seq);
      ms_fp32.push_back(d_fp32);
      ms_fp32p.push_back(d_fp32p);
    }
  }
  row.sequential_ms = median(ms_seq);
  row.fp32_ms = median(ms_fp32);
  row.fp32_par_ms = median(ms_fp32p);
  std::vector<double> ratio(ms_seq.size());
  const auto ratio_median = [&](const std::vector<double>& base,
                                const std::vector<double>& arm) {
    for (std::size_t i = 0; i < arm.size(); ++i) {
      ratio[i] = arm[i] > 0.0 ? base[i] / arm[i] : 0.0;
    }
    return median(ratio);
  };
  row.fp32_speedup = ratio_median(ms_seq, ms_fp32);
  row.fp32_par_speedup = ratio_median(ms_fp32, ms_fp32p);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const BenchSetup setup = make_setup(smoke);
  const std::size_t m = setup.holdout.size();
  const std::size_t threads = ThreadPool::global().size();
  const std::size_t cores = std::thread::hardware_concurrency();
  // Threading cannot be expected to pay on a starved container.
  const bool multi_core = cores >= 4 && threads >= 4;
  std::printf("BM_MultiModelEval: %zu samples, arch {%zu,%zu,%zu}, %zu "
              "timed reps/cell, %zu pool threads / %zu cores%s%s\n",
              m, setup.arch.layer_dims[0], setup.arch.layer_dims[1],
              setup.arch.layer_dims[2], setup.timed, threads, cores,
              smoke ? " (smoke)" : "",
              multi_core ? "" : " [speed gate waived]");
  std::printf("%8s %12s %10s %10s %8s %8s %7s %6s\n", "lookback", "seq ms",
              "fp32 ms", "fp32p ms", "fp32 spd", "par spd", "parity",
              "bitid");

  if (!smoke) warm_up_pool(kWarmUpSeconds);

  std::vector<SweepRow> rows;
  bool all_parity = true;
  bool all_bitid = true;
  bool speedup_ok = true;
  for (const std::size_t ell : kLookbacks) {
    const std::size_t models = ell + 1;
    PredTable seq(models, std::vector<std::size_t>(m));
    PredTable fp32(models, std::vector<std::size_t>(m));
    PredTable fp32p(models, std::vector<std::size_t>(m));

    SweepRow row;
    row.lookback = ell;
    run_row(setup, models, seq, fp32, fp32p, row);

    // Serial engine: bit-identical predictions to sequential. Parallel
    // engine: byte-equal to the serial one — the tile decomposition
    // writes disjoint slices and reorders no reduction, so thread count
    // must not change a single prediction.
    row.parity_ok = true;
    row.bit_identical = true;
    for (std::size_t v = 0; v < models; ++v) {
      if (fp32[v] != seq[v]) row.parity_ok = false;
      if (fp32p[v] != fp32[v]) row.bit_identical = false;
    }
    all_parity = all_parity && row.parity_ok;
    all_bitid = all_bitid && row.bit_identical;
    if (!smoke && multi_core && ell >= 10 && row.fp32_par_speedup < 2.0) {
      speedup_ok = false;
    }
    rows.push_back(row);
    std::printf("%8zu %9.3f ms %7.3f ms %7.3f ms %7.2fx %7.2fx %7s %6s\n",
                row.lookback, row.sequential_ms, row.fp32_ms,
                row.fp32_par_ms, row.fp32_speedup, row.fp32_par_speedup,
                row.parity_ok ? "ok" : "FAIL",
                row.bit_identical ? "ok" : "FAIL");
  }

  FILE* f = std::fopen("BENCH_multieval.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr,
                 "multieval_bench: cannot write BENCH_multieval.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"name\": \"BM_MultiModelEval\",\n"
               "  \"samples\": %zu,\n"
               "  \"hidden\": %zu,\n"
               "  \"timed_reps\": %zu,\n"
               "  \"smoke\": %s,\n"
               "  \"threads\": %zu,\n"
               "  \"hardware_cores\": %zu,\n"
               "  \"speedup_gate_enforced\": %s,\n"
               "  \"sweeps\": [\n",
               m, setup.arch.layer_dims[1], setup.timed,
               smoke ? "true" : "false", threads, cores,
               (!smoke && multi_core) ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& row = rows[i];
    std::fprintf(
        f,
        "    {\"lookback\": %zu, \"sequential_ms\": %.3f, "
        "\"fp32_ms\": %.3f, \"fp32_par_ms\": %.3f, "
        "\"fp32_speedup\": %.3f, \"fp32_par_speedup\": %.3f, "
        "\"parity_ok\": %s, \"bit_identical\": %s}%s\n",
        row.lookback, row.sequential_ms, row.fp32_ms, row.fp32_par_ms,
        row.fp32_speedup, row.fp32_par_speedup,
        row.parity_ok ? "true" : "false",
        row.bit_identical ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"parity_ok\": %s,\n"
               "  \"bit_identical\": %s\n"
               "}\n",
               all_parity ? "true" : "false", all_bitid ? "true" : "false");
  std::fclose(f);
  std::printf("wrote BENCH_multieval.json\n");
  if (!all_parity) return 1;
  if (!all_bitid) {
    std::fprintf(stderr,
                 "multieval_bench: parallel arm not bit-identical to serial\n");
    return 1;
  }
  if (!speedup_ok) {
    std::fprintf(stderr,
                 "multieval_bench: speed gate missed (parallel fp32 vs "
                 "serial fp32 below 2x at some lookback >= 10)\n");
    return 1;
  }
  return 0;
}
