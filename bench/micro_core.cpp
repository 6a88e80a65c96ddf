// Micro-benchmarks (google-benchmark) for the computational kernels the
// defense leans on: LOF scoring, per-class error-variation extraction,
// secure-aggregation masking, GEMM, one SGD step, local training, and a
// full VALIDATE call — the per-round client-side cost of BaFFLe.
//
// Before the google-benchmark suite runs, main() times the three GEMMs
// and axpy on both arms (scalar vs SIMD) and writes BENCH_simd.json with
// GFLOP/s, speedup and a parity check per kernel. Run with
// --benchmark_filter='^$' to emit just the JSON.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/defense.hpp"
#include "core/validate.hpp"
#include "data/synth.hpp"
#include "fl/client.hpp"
#include "fl/secure_agg.hpp"
#include "nn/train.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "util/metric_names.hpp"
#include "util/metrics.hpp"

namespace baffle {
namespace {

void BM_GemmForward(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Matrix a(n, 64), b(64, 10), out(n, 10);
  for (float& x : a.flat()) x = static_cast<float>(rng.normal());
  for (float& x : b.flat()) x = static_cast<float>(rng.normal());
  for (auto _ : state) {
    gemm_ab(a, b, out);
    benchmark::DoNotOptimize(out.flat().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_GemmForward)->Arg(32)->Arg(256);

/// Square GEMM throughput (the acceptance target is 256x256x256). The
/// GFLOP/s counter counts 2*n^3 flops per multiply.
void BM_GemmSquare(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  Matrix a(n, n), b(n, n), out(n, n);
  for (float& x : a.flat()) x = static_cast<float>(rng.normal());
  for (float& x : b.flat()) x = static_cast<float>(rng.normal());
  for (auto _ : state) {
    gemm_ab(a, b, out);
    benchmark::DoNotOptimize(out.flat().data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(n * n * n) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_GemmSquare)->Arg(64)->Arg(128)->Arg(256)->UseRealTime();

void BM_GemmAtbSquare(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  Matrix a(n, n), b(n, n), out(n, n);
  for (float& x : a.flat()) x = static_cast<float>(rng.normal());
  for (float& x : b.flat()) x = static_cast<float>(rng.normal());
  for (auto _ : state) {
    gemm_atb(a, b, out);
    benchmark::DoNotOptimize(out.flat().data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(n * n * n) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_GemmAtbSquare)->Arg(256)->UseRealTime();

void BM_GemmAbtSquare(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  Matrix a(n, n), b(n, n), out(n, n);
  for (float& x : a.flat()) x = static_cast<float>(rng.normal());
  for (float& x : b.flat()) x = static_cast<float>(rng.normal());
  for (auto _ : state) {
    gemm_abt(a, b, out);
    benchmark::DoNotOptimize(out.flat().data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * static_cast<double>(n * n * n) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_GemmAbtSquare)->Arg(256)->UseRealTime();

void BM_LofScore(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<VariationPoint> reference;
  for (std::size_t i = 0; i < n; ++i) {
    VariationPoint p(20);
    for (auto& x : p) x = rng.normal(0.0, 0.01);
    reference.push_back(std::move(p));
  }
  const VariationPoint query(20, 0.05);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lof_score(query, reference, (n + 1) / 2));
  }
}
BENCHMARK(BM_LofScore)->Arg(10)->Arg(20)->Arg(30);

void BM_ErrorVariation(benchmark::State& state) {
  std::vector<int> labels;
  std::vector<std::size_t> preds_a, preds_b;
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const int t = static_cast<int>(rng.uniform_int(0, 61));
    labels.push_back(t);
    preds_a.push_back(static_cast<std::size_t>(rng.uniform_int(0, 61)));
    preds_b.push_back(static_cast<std::size_t>(t));
  }
  const ErrorProfile a = error_profile(labels, preds_a, 62);
  const ErrorProfile b = error_profile(labels, preds_b, 62);
  for (auto _ : state) {
    benchmark::DoNotOptimize(error_variation(a, b));
  }
}
BENCHMARK(BM_ErrorVariation);

// One round's client-side masking, as FlServer::aggregate_secure runs
// it: 10 senders, 45 pair keystreams, into buffers kept across
// iterations.
void BM_SecureAggMask(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  SecureAggConfig cfg;
  cfg.round_key = 7;
  const SecureAggregation sa(cfg);
  constexpr std::size_t kSenders = 10;
  Rng rng(8);
  std::vector<ParamVec> updates(kSenders, ParamVec(dim));
  for (auto& u : updates) {
    for (float& x : u) x = static_cast<float>(rng.normal(0.0, 0.1));
  }
  std::vector<std::size_t> participants(kSenders);
  for (std::size_t i = 0; i < kSenders; ++i) participants[i] = i;
  std::vector<MaskedVec> masked;
  for (auto _ : state) {
    sa.mask(updates, participants, participants, masked);
    benchmark::DoNotOptimize(masked.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(kSenders * dim * 4));
}
BENCHMARK(BM_SecureAggMask)->Arg(2762)->Arg(10718);

void BM_LocalTraining(benchmark::State& state) {
  // One client's per-round work as a round asks for it: update_for on a
  // 180-sample vision shard, 2 epochs of batch-32 SGD at lr 0.1.
  Rng rng(4);
  SynthTaskConfig cfg = synth_vision10_config();
  cfg.train_per_class = 18;
  const SynthTask task = make_synth_task(cfg, rng);
  const std::vector<FlClient> clients = {FlClient(0, task.train)};
  HonestUpdateProvider provider(&clients, TrainConfig{});
  Mlp model(MlpConfig{{cfg.dim, 64, cfg.num_classes}});
  model.init(rng);
  for (auto _ : state) {
    Rng train_rng = rng.fork();
    benchmark::DoNotOptimize(provider.update_for(0, model, train_rng));
  }
}
BENCHMARK(BM_LocalTraining);

/// One train_sgd step on an experiment's model: vision ({32, 64, 10},
/// whose output layer runs class-major) at a client update's batch of 32
/// and pretraining's 64, and FEMNIST ({48, 96, 62}, row-major) at 32.
/// Each iteration trains on the next of the task's batches (the index
/// shuffle of one batch included), round-robin over its synthetic train
/// set, so the model learns the task as pretraining does and its logits
/// stay in the range training sees.
void BM_TrainStep(benchmark::State& state, bool femnist, std::size_t batch) {
  Rng rng(8);
  const SynthTaskConfig cfg =
      femnist ? synth_femnist62_config() : synth_vision10_config();
  const SynthTask task = make_synth_task(cfg, rng);
  const Matrix& features = task.train.features();
  const std::span<const int> labels = task.train.labels();
  std::vector<Matrix> xs(features.rows() / batch, Matrix(batch, cfg.dim));
  std::vector<std::vector<int>> ys(xs.size());
  for (std::size_t b = 0; b < xs.size(); ++b) {
    for (std::size_t i = 0; i < batch; ++i) {
      const auto row = features.row(b * batch + i);
      std::copy(row.begin(), row.end(), xs[b].row(i).begin());
      ys[b].push_back(labels[b * batch + i]);
    }
  }
  Mlp model(MlpConfig{{cfg.dim, femnist ? 96u : 64u, cfg.num_classes}});
  model.init(rng);
  TrainConfig one_step;
  one_step.epochs = 1;
  one_step.batch_size = batch;
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(train_sgd(model, xs[next], ys[next], one_step,
                                       rng));
    benchmark::ClobberMemory();
    next = next + 1 == xs.size() ? 0 : next + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_TrainStep, vision32, false, 32);
BENCHMARK_CAPTURE(BM_TrainStep, vision64, false, 64);
BENCHMARK_CAPTURE(BM_TrainStep, femnist32, true, 32);

void BM_ValidateCall(benchmark::State& state) {
  // Full Algorithm 2 on a 21-model history with a warm cache — the
  // steady-state per-round cost of one validating client.
  Rng rng(5);
  SynthTaskConfig cfg = synth_vision10_config();
  cfg.train_per_class = 60;
  const SynthTask task = make_synth_task(cfg, rng);
  const MlpConfig arch{{cfg.dim, 32, cfg.num_classes}};
  Mlp model(arch);
  model.init(rng);
  TrainConfig warm;
  warm.epochs = 8;
  warm.sgd.learning_rate = 0.05f;
  train_sgd(model, task.train.features(), task.train.labels(), warm, rng);
  ModelHistory history(21);
  TrainConfig slice;
  slice.epochs = 1;
  slice.sgd.learning_rate = 0.01f;
  for (std::uint64_t v = 0; v <= 20; ++v) {
    history.push(v, model.parameters());
    train_sgd(model, task.train.features(), task.train.labels(), slice, rng);
  }
  ValidatorConfig vcfg;
  vcfg.lookback = 20;
  Validator validator(task.test.sample(100, rng), arch, vcfg);
  const ParamVec candidate = model.parameters();
  const ModelWindow window = history.window_shared(21);
  validator.validate(candidate, window);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(validator.validate(candidate, window));
  }
}
BENCHMARK(BM_ValidateCall);

void BM_ValidateShift(benchmark::State& state) {
  // One validation whose ℓ = 20 window moved by s commits since the
  // validator last ran: the first commit is the candidate it scored
  // (promoted), the other s − 1 are models it never saw. s = 1 is the
  // server, which validates every round; s = 5 a vision client sampled
  // about one round in five. BM_ValidateCall is s = 0. Only validate()
  // is timed; the models cycle through a ring of trained snapshots
  // under ever-growing versions.
  const auto shift = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  SynthTaskConfig cfg = synth_vision10_config();
  cfg.train_per_class = 60;
  const SynthTask task = make_synth_task(cfg, rng);
  const MlpConfig arch{{cfg.dim, 32, cfg.num_classes}};
  Mlp model(arch);
  model.init(rng);
  TrainConfig warm;
  warm.epochs = 8;
  warm.sgd.learning_rate = 0.05f;
  train_sgd(model, task.train.features(), task.train.labels(), warm, rng);
  TrainConfig slice;
  slice.epochs = 1;
  slice.sgd.learning_rate = 0.01f;
  std::vector<ParamVec> ring;
  for (int i = 0; i < 48; ++i) {
    ring.push_back(model.parameters());
    train_sgd(model, task.train.features(), task.train.labels(), slice, rng);
  }
  ModelHistory history(21);
  std::uint64_t version = 0;
  for (; version <= 20; ++version) history.push(version, ring[version]);
  --version;
  ValidatorConfig vcfg;
  vcfg.lookback = 20;
  Validator validator(task.test.sample(100, rng), arch, vcfg);
  const auto next_model = [&] { return ring[(version + 1) % ring.size()]; };
  ParamVec candidate = next_model();
  validator.validate(candidate, history.window_shared(21));  // warm
  const MetricsRegistry& registry = MetricsRegistry::global();
  const double engine_before = registry.timer_seconds(metric::kEngineRun);
  double validate_seconds = 0.0;
  for (auto _ : state) {
    validator.notify_commit(++version, candidate);
    history.push(version, candidate);
    for (std::size_t i = 1; i < shift; ++i) {
      ++version;
      history.push(version, ring[version % ring.size()]);
    }
    const ModelWindow window = history.window_shared(21);
    candidate = next_model();
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(validator.validate(candidate, window));
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    state.SetIterationTime(seconds);
    validate_seconds += seconds;
  }
  // The part of a validation outside the engine pass (the score phase).
  const double engine_seconds =
      registry.timer_seconds(metric::kEngineRun) - engine_before;
  const auto per_call = [&](double seconds) {
    return benchmark::Counter(seconds * 1e6 /
                              static_cast<double>(state.iterations()));
  };
  state.counters["engine_us"] = per_call(engine_seconds);
  state.counters["outside_engine_us"] =
      per_call(validate_seconds - engine_seconds);
}
BENCHMARK(BM_ValidateShift)->Arg(1)->Arg(5)->UseManualTime();

void BM_ValidationRound(benchmark::State& state) {
  // End-to-end per-round validation cost at l = 10, n = 10: the server
  // runs the feedback loop over ten client validators plus its own
  // holdout. History caches are warm (steady state), so each iteration
  // pays exactly what one round pays — n+1 candidate evaluations plus
  // the LOF scoring — on the global thread pool.
  Rng rng(9);
  SynthTaskConfig cfg = synth_vision10_config();
  cfg.train_per_class = 60;
  const SynthTask task = make_synth_task(cfg, rng);
  const MlpConfig arch{{cfg.dim, 32, cfg.num_classes}};
  std::vector<FlClient> clients;
  for (std::size_t i = 0; i < 10; ++i) {
    clients.emplace_back(i, task.train.sample(200, rng));
  }
  Mlp model(arch);
  model.init(rng);
  TrainConfig warm;
  warm.epochs = 8;
  warm.sgd.learning_rate = 0.05f;
  train_sgd(model, task.train.features(), task.train.labels(), warm, rng);

  FeedbackConfig fcfg;
  fcfg.mode = DefenseMode::kClientsAndServer;
  fcfg.quorum = 5;
  fcfg.validator.lookback = 10;
  BaffleDefense defense(arch, fcfg, task.test.sample(150, rng));
  TrainConfig slice;
  slice.epochs = 1;
  slice.sgd.learning_rate = 0.01f;
  for (std::uint64_t v = 0; v <= 10; ++v) {
    defense.on_commit(v, model.parameters());
    train_sgd(model, task.train.features(), task.train.labels(), slice, rng);
  }
  const ParamVec candidate = model.parameters();
  const std::vector<std::size_t> ids{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  defense.evaluate(candidate, ids, clients, {}, VoteStrategy::kHonest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        defense.evaluate(candidate, ids, clients, {}, VoteStrategy::kHonest));
  }
}
BENCHMARK(BM_ValidationRound)->Unit(benchmark::kMillisecond)->UseRealTime();

// ---------------------------------------------------------------------
// BENCH_simd.json: scalar-vs-dispatched throughput + parity per kernel.

struct SimdBenchEntry {
  std::string kernel;
  std::string shape;
  double gflops_scalar = 0.0;
  double gflops_dispatched = 0.0;
  double speedup = 0.0;
  bool parity_ok = false;
};

/// Best-effort GFLOP/s: grow the iteration count until a timed block
/// spans >= 50 ms, then convert. One warmup call first (packs panels,
/// faults pages).
template <typename Fn>
double measure_gflops(double flops_per_call, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  fn();
  for (std::size_t iters = 1;; iters *= 4) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double sec =
        std::chrono::duration<double>(clock::now() - t0).count();
    if (sec >= 0.05 || iters >= (1u << 24)) {
      return flops_per_call * static_cast<double>(iters) / sec / 1e9;
    }
  }
}

double max_rel_err(std::span<const float> ref, std::span<const float> got) {
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double r = ref[i];
    worst = std::max(worst, std::abs(got[i] - r) / (std::abs(r) + 1.0));
  }
  return worst;
}

template <typename GemmFn>
SimdBenchEntry bench_gemm_kernel(const char* name, GemmFn gemm,
                                 std::size_t n) {
  Rng rng(42);
  Matrix a(n, n), b(n, n), out(n, n), ref(n, n);
  for (float& x : a.flat()) x = static_cast<float>(rng.normal());
  for (float& x : b.flat()) x = static_cast<float>(rng.normal());
  const double flops = 2.0 * static_cast<double>(n * n * n);

  SimdBenchEntry e;
  e.kernel = name;
  e.shape = std::to_string(n) + "x" + std::to_string(n) + "x" +
            std::to_string(n);
  simd::force_isa(simd::Isa::kScalar);
  gemm(a, b, ref);
  e.gflops_scalar = measure_gflops(flops, [&] {
    gemm(a, b, out);
    benchmark::DoNotOptimize(out.flat().data());
  });
  simd::reset_isa();
  gemm(a, b, out);
  e.parity_ok = max_rel_err(ref.flat(), out.flat()) < 1e-3;
  e.gflops_dispatched = measure_gflops(flops, [&] {
    gemm(a, b, out);
    benchmark::DoNotOptimize(out.flat().data());
  });
  e.speedup = e.gflops_scalar > 0.0 ? e.gflops_dispatched / e.gflops_scalar
                                    : 0.0;
  return e;
}

/// In-place primitive: parity from one application on a fresh copy per
/// arm, throughput measured on a scratch buffer.
template <typename Fn>
SimdBenchEntry bench_inplace(const char* name, double flops_per_elem,
                             const std::vector<float>& start, Fn fn) {
  SimdBenchEntry e;
  e.kernel = name;
  e.shape = std::to_string(start.size());
  const double flops = flops_per_elem * static_cast<double>(start.size());
  std::vector<float> buf = start;
  simd::force_isa(simd::Isa::kScalar);
  fn(buf);
  const std::vector<float> ref = buf;
  buf = start;
  e.gflops_scalar = measure_gflops(flops, [&] {
    fn(buf);
    benchmark::DoNotOptimize(buf.data());
  });
  simd::reset_isa();
  buf = start;
  fn(buf);
  e.parity_ok = max_rel_err(ref, buf) < 1e-4;
  e.gflops_dispatched = measure_gflops(flops, [&] {
    fn(buf);
    benchmark::DoNotOptimize(buf.data());
  });
  e.speedup = e.gflops_scalar > 0.0 ? e.gflops_dispatched / e.gflops_scalar
                                    : 0.0;
  return e;
}

int write_simd_bench_json() {
  std::printf("GEMM tile: %s (dispatched arm: %s)\n", simd::gemm_width(),
              simd::isa_name(simd::active_isa()));
  constexpr std::size_t kGemmDim = 256;
  constexpr std::size_t kVecLen = 1 << 16;
  Rng rng(43);
  std::vector<float> va(kVecLen), vb(kVecLen);
  for (auto& x : va) x = static_cast<float>(rng.normal());
  for (auto& x : vb) x = static_cast<float>(rng.normal());

  std::vector<SimdBenchEntry> entries;
  entries.push_back(bench_gemm_kernel(
      "gemm_ab",
      [](const Matrix& a, const Matrix& b, Matrix& o) { gemm_ab(a, b, o); },
      kGemmDim));
  entries.push_back(bench_gemm_kernel(
      "gemm_atb",
      [](const Matrix& a, const Matrix& b, Matrix& o) { gemm_atb(a, b, o); },
      kGemmDim));
  entries.push_back(bench_gemm_kernel(
      "gemm_abt",
      [](const Matrix& a, const Matrix& b, Matrix& o) { gemm_abt(a, b, o); },
      kGemmDim));
  entries.push_back(bench_inplace("axpy", 2.0, vb, [&](std::vector<float>& y) {
    axpy(0.25f, va, y);
  }));
  simd::reset_isa();

  bool all_parity = true;
  for (const auto& e : entries) all_parity = all_parity && e.parity_ok;

  FILE* f = std::fopen("BENCH_simd.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_core: cannot write BENCH_simd.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"name\": \"BENCH_simd\",\n"
               "  \"dispatched_isa\": \"%s\",\n"
               "  \"gemm_width\": \"%s\",\n"
               "  \"vector_arm_available\": %s,\n"
               "  \"entries\": [\n",
               simd::isa_name(simd::active_isa()), simd::gemm_width(),
               simd::isa_available(simd::Isa::kVector) ? "true" : "false");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"shape\": \"%s\", "
                 "\"gflops_scalar\": %.3f, \"gflops_dispatched\": %.3f, "
                 "\"speedup\": %.3f, \"parity_ok\": %s}%s\n",
                 e.kernel.c_str(), e.shape.c_str(), e.gflops_scalar,
                 e.gflops_dispatched, e.speedup,
                 e.parity_ok ? "true" : "false",
                 i + 1 < entries.size() ? "," : "");
    std::printf("%-20s %-14s scalar %8.3f GFLOP/s  dispatched %8.3f "
                "GFLOP/s  speedup %5.2fx  parity %s\n",
                e.kernel.c_str(), e.shape.c_str(), e.gflops_scalar,
                e.gflops_dispatched, e.speedup, e.parity_ok ? "ok" : "FAIL");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"all_parity_ok\": %s\n"
               "}\n",
               all_parity ? "true" : "false");
  std::fclose(f);
  std::printf("wrote BENCH_simd.json\n");
  return all_parity ? 0 : 1;
}

}  // namespace
}  // namespace baffle

int main(int argc, char** argv) {
  const int simd_rc = baffle::write_simd_bench_json();
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return simd_rc;
}
