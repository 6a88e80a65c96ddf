// BM_ProposeRound — serial vs parallel client-update phase of one FL
// round (10 clients/round, 2 local epochs, the paper's setup), plus the
// bit-identity check that makes the speedup admissible: the parallel
// round must reproduce the serial candidate parameters exactly.
//
// The serial arm runs on a one-worker global pool (ScopedGlobalPool),
// where every parallel_for runs inline; the parallel arm runs on the
// process pool, whose size follows BAFFLE_THREADS (default: hardware
// concurrency); run with BAFFLE_THREADS=8 for the acceptance number.
// Prints both timings and writes BENCH_round.json to the working
// directory.

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "data/synth.hpp"
#include "fl/server.hpp"
#include "nn/train.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace baffle;

constexpr std::size_t kClientsPerRound = 10;
constexpr std::size_t kLocalEpochs = 2;
constexpr std::size_t kWarmupRounds = 1;
constexpr std::size_t kTimedRounds = 6;

struct Setup {
  SynthTask task;
  std::vector<FlClient> clients;
  MlpConfig arch;
  FlConfig fl;

  Setup() : task(make_task()) {
    Rng rng(42);
    for (std::size_t i = 0; i < 30; ++i) {
      Rng crng = rng.fork();
      clients.emplace_back(i, task.train.sample(200, crng));
    }
    arch = MlpConfig{{task.config.dim, 64, task.config.num_classes},
                     Activation::kRelu};
    fl.total_clients = clients.size();
    fl.clients_per_round = kClientsPerRound;
    fl.local_train.epochs = kLocalEpochs;
    fl.secure_aggregation = true;
  }

  static SynthTask make_task() {
    Rng rng(41);
    SynthTaskConfig cfg = synth_vision10_config();
    cfg.train_per_class = 120;
    return make_synth_task(cfg, rng);
  }
};

/// Runs warm-up + timed proposals and returns {ms per round, per-round
/// candidates} for the bit-identity check.
struct RunResult {
  double ms_per_round = 0.0;
  std::vector<ParamVec> candidates;
};

RunResult run_rounds() {
  Setup s;
  FlServer server(s.arch, s.fl, 7);
  HonestUpdateProvider provider(&s.clients, s.fl.local_train);
  Rng round_rng(13);
  RunResult out;
  double total_ms = 0.0;
  for (std::size_t r = 0; r < kWarmupRounds + kTimedRounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    auto proposal = server.propose_round(provider, round_rng);
    const auto t1 = std::chrono::steady_clock::now();
    if (r >= kWarmupRounds) {
      total_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
      out.candidates.push_back(proposal.candidate_params);
    }
    server.commit(proposal);
  }
  out.ms_per_round = total_ms / static_cast<double>(kTimedRounds);
  return out;
}

}  // namespace

int main() {
  const std::size_t threads = ThreadPool::global().size();
  const std::size_t cores = std::thread::hardware_concurrency();
  std::printf("BM_ProposeRound: %zu clients/round, %zu local epochs, "
              "%zu threads (%zu hardware cores)\n",
              kClientsPerRound, kLocalEpochs, threads, cores);

  RunResult serial;
  {
    const ScopedGlobalPool one_worker(1);
    serial = run_rounds();
  }
  const RunResult parallel = run_rounds();

  bool bit_identical = serial.candidates.size() == parallel.candidates.size();
  for (std::size_t r = 0; bit_identical && r < serial.candidates.size(); ++r) {
    bit_identical = serial.candidates[r] == parallel.candidates[r];
  }
  const double speedup =
      parallel.ms_per_round > 0.0 ? serial.ms_per_round / parallel.ms_per_round
                                  : 0.0;

  std::printf("serial:   %8.2f ms/round\n", serial.ms_per_round);
  std::printf("parallel: %8.2f ms/round\n", parallel.ms_per_round);
  std::printf("speedup:  %8.2fx   bit-identical: %s\n", speedup,
              bit_identical ? "yes" : "NO");

  FILE* f = std::fopen("BENCH_round.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "round_bench: cannot write BENCH_round.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"name\": \"BM_ProposeRound\",\n"
               "  \"clients_per_round\": %zu,\n"
               "  \"local_epochs\": %zu,\n"
               "  \"threads\": %zu,\n"
               "  \"hardware_cores\": %zu,\n"
               "  \"timed_rounds\": %zu,\n"
               "  \"serial_ms_per_round\": %.3f,\n"
               "  \"parallel_ms_per_round\": %.3f,\n"
               "  \"speedup\": %.3f,\n"
               "  \"bit_identical\": %s\n"
               "}\n",
               kClientsPerRound, kLocalEpochs, threads, cores, kTimedRounds,
               serial.ms_per_round, parallel.ms_per_round, speedup,
               bit_identical ? "true" : "false");
  std::fclose(f);
  std::printf("wrote BENCH_round.json\n");
  return bit_identical ? 0 : 1;
}
