// Experiment-level determinism across pool sizes.
//
// The adaptive provider lives inside experiment.cpp, so its concurrency
// safety (atomic submitted_/alpha_, single attacker task per round) is
// exercised through run_experiment: a run on a 4-worker global pool
// must be bit-identical to the same run on one worker, where every
// fork-join runs inline. run_repeated additionally nests whole runs
// inside the pool, so its results double as a smoke test for nested
// fork-join scheduling. Both arms run in this process
// (ScopedGlobalPool), whatever BAFFLE_THREADS says.

#include <gtest/gtest.h>

#include "exp/experiment.hpp"
#include "util/thread_pool.hpp"

namespace baffle {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.scenario = vision_scenario(0.10);
  cfg.scenario.num_clients = 40;
  cfg.scenario.train_per_class_override = 80;
  cfg.feedback.quorum = 4;
  cfg.feedback.validator.lookback = 8;
  cfg.schedule = AttackSchedule::stable_scenario();
  cfg.schedule.poison_rounds = {14, 18};
  cfg.rounds = 22;
  cfg.defense_start = 10;
  cfg.track_accuracy = true;
  return cfg;
}

ExperimentResult run_on(std::size_t workers, const ExperimentConfig& cfg,
                        std::uint64_t seed) {
  const ScopedGlobalPool pool(workers);
  return run_experiment(cfg, seed);
}

RepeatedResult repeated_on(std::size_t workers, const ExperimentConfig& cfg,
                           std::size_t reps, std::uint64_t base_seed) {
  const ScopedGlobalPool pool(workers);
  return run_repeated(cfg, reps, base_seed);
}

/// Everything in a RoundRecord except the wall-clock timings, which are
/// the only fields allowed to differ between pool sizes.
void expect_rounds_identical(const std::vector<RoundRecord>& a,
                             const std::vector<RoundRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].round, b[i].round);
    EXPECT_EQ(a[i].defense_active, b[i].defense_active);
    EXPECT_EQ(a[i].poisoned, b[i].poisoned);
    EXPECT_EQ(a[i].rejected, b[i].rejected);
    EXPECT_EQ(a[i].main_accuracy, b[i].main_accuracy);
    EXPECT_EQ(a[i].backdoor_accuracy, b[i].backdoor_accuracy);
    EXPECT_EQ(a[i].reject_votes, b[i].reject_votes);
    EXPECT_EQ(a[i].num_validators, b[i].num_validators);
  }
}

void expect_results_identical(const ExperimentResult& a,
                              const ExperimentResult& b) {
  expect_rounds_identical(a.rounds, b.rounds);
  ASSERT_EQ(a.injections.size(), b.injections.size());
  for (std::size_t i = 0; i < a.injections.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.injections[i].round, b.injections[i].round);
    EXPECT_EQ(a.injections[i].adaptive, b.injections[i].adaptive);
    EXPECT_EQ(a.injections[i].alpha, b.injections[i].alpha);
    EXPECT_EQ(a.injections[i].rejected, b.injections[i].rejected);
  }
  EXPECT_EQ(a.rates.false_positives, b.rates.false_positives);
  EXPECT_EQ(a.rates.false_negatives, b.rates.false_negatives);
  EXPECT_EQ(a.final_main_accuracy, b.final_main_accuracy);
  EXPECT_EQ(a.final_backdoor_accuracy, b.final_backdoor_accuracy);
  EXPECT_EQ(a.adaptive_skipped, b.adaptive_skipped);
}

TEST(ParallelExperiment, ReplacementRunMatchesSerialBitExact) {
  const ExperimentConfig cfg = small_config();
  expect_results_identical(run_on(4, cfg, 21), run_on(1, cfg, 21));
}

TEST(ParallelExperiment, AdaptiveRunMatchesSerialBitExact) {
  ExperimentConfig cfg = small_config();
  cfg.schedule.adaptive = true;
  expect_results_identical(run_on(4, cfg, 23), run_on(1, cfg, 23));
}

TEST(ParallelExperiment, ParallelEngineNestsInPipelinedRepeatedRuns) {
  // Deepest nesting the runtime supports: the pool-parallel evaluation
  // engine (DESIGN.md §17) runs inside a validator task of a pipelined
  // task-graph round, itself a repetition task of run_repeated — three
  // levels of fork-join on one pool, safe because validate() never
  // holds its lock across a pool wait and waiters help-drain. The
  // engine's thread placement must not leak into results: the 4-worker
  // runs equal the 1-worker runs bit for bit.
  ExperimentConfig cfg = small_config();
  cfg.rounds = 14;
  cfg.track_accuracy = false;
  cfg.scenario.pipeline_rounds = true;
  const auto nested = repeated_on(4, cfg, 2, 131);
  const auto inline_runs = repeated_on(1, cfg, 2, 131);
  ASSERT_EQ(nested.runs.size(), 2u);
  ASSERT_EQ(inline_runs.runs.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(i);
    expect_results_identical(nested.runs[i], inline_runs.runs[i]);
  }
}

TEST(ParallelExperiment, RunRepeatedNestsInsidePool) {
  // Repetitions run as pool tasks; each repetition's rounds then issue
  // their own parallel_for. The help-drain pool makes that safe, and
  // pre-forked Rngs make each repetition's result independent of
  // scheduling — so the nested 4-worker runs must equal standalone
  // 1-worker ones.
  ExperimentConfig cfg = small_config();
  cfg.rounds = 14;
  cfg.track_accuracy = false;
  const auto repeated = repeated_on(4, cfg, 3, 90);
  ASSERT_EQ(repeated.runs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(i);
    expect_results_identical(repeated.runs[i], run_on(1, cfg, 90 + i));
  }
}

}  // namespace
}  // namespace baffle
