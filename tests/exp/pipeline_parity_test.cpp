// Accuracy tracking in the serial round loop: each round's accuracy is
// measured on the model the round left behind, so a rejected round
// must report exactly the accuracy of the round before it (the
// rollback restored that model). The tracking engines must equal the
// inference oracle and the one-off entry points (evaluate_confusion,
// backdoor_accuracy) on every round's model, and tracking must stay
// bit-exact where experiments nest inside the pool (run_repeated) and
// where rounds cross the wire protocol.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "attack/backdoor.hpp"
#include "exp/experiment.hpp"
#include "metrics/confusion.hpp"
#include "support/predict_oracle.hpp"
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
    EXPECT_EQ(a.injections[i].rejected, b.injections[i].rejected);
  }
  EXPECT_EQ(a.rates.false_positives, b.rates.false_positives);
  EXPECT_EQ(a.rates.false_negatives, b.rates.false_negatives);
  EXPECT_EQ(a.final_main_accuracy, b.final_main_accuracy);
  EXPECT_EQ(a.final_backdoor_accuracy, b.final_backdoor_accuracy);
  EXPECT_EQ(a.adaptive_skipped, b.adaptive_skipped);
}

TEST(PipelineParity, PipelinedRejectionRoundsKeepOldSnapshot) {
  // Force rejections (quorum 1 + strict margin). A rejected round rolls
  // the candidate back, so its accuracies must equal the previous
  // round's bit for bit — on one worker and on four.
  ExperimentConfig cfg = small_config();
  cfg.feedback.quorum = 1;
  cfg.feedback.validator.tau_margin = 0.5;
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    const ScopedGlobalPool pool(workers);
    const auto result = run_experiment(cfg, 35);
    std::size_t rejects = 0;
    for (std::size_t i = 0; i < result.rounds.size(); ++i) {
      const RoundRecord& round = result.rounds[i];
      if (!round.rejected) continue;
      SCOPED_TRACE(round.round);
      ++rejects;
      ASSERT_GT(i, 0u);
      const RoundRecord& before = result.rounds[i - 1];
      EXPECT_EQ(std::bit_cast<std::uint64_t>(round.main_accuracy),
                std::bit_cast<std::uint64_t>(before.main_accuracy));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(round.backdoor_accuracy),
                std::bit_cast<std::uint64_t>(before.backdoor_accuracy));
    }
    EXPECT_GT(rejects, 0u);
  }
}

TEST(AccuracyTracking, EnginesMatchEvaluateConfusionEveryRound) {
  // run_experiment tracks accuracy on AccuracyTracker's engines, bound
  // once; on every model a round leaves behind they must equal the
  // inference oracle (tests/support/predict_oracle.hpp) bit for bit,
  // and so must the one-off entry points, evaluate_confusion and
  // backdoor_accuracy, which bind an engine per call. On one worker
  // and on four.
  const ExperimentConfig cfg = small_config();
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    const ScopedGlobalPool pool(workers);
    Rng rng(81);
    const Scenario scenario = build_scenario(cfg.scenario, rng);
    FlServer server(scenario.arch, scenario.fl, rng.next_u64());
    HonestUpdateProvider provider(&scenario.clients, scenario.fl.local_train);
    AccuracyTracker tracker(scenario.arch, scenario.task.test,
                            scenario.task.backdoor_test,
                            scenario.backdoor.target_class);
    for (std::size_t round = 0; round <= 6; ++round) {
      SCOPED_TRACE(round);
      if (round > 0) server.commit(server.propose_round(provider, rng));
      const Mlp& model = server.global_model();
      const AccuracyTracker::Accuracies got =
          tracker.measure(model.parameters());
      const double main =
          oracle_confusion(model, scenario.task.test).accuracy();
      const double backdoor = backdoor_hit_rate(
          scenario.task.backdoor_test, scenario.backdoor.target_class,
          oracle_predict(model, scenario.task.backdoor_test.features()));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.main),
                std::bit_cast<std::uint64_t>(main));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.backdoor),
                std::bit_cast<std::uint64_t>(backdoor));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    evaluate_confusion(model, scenario.task.test).accuracy()),
                std::bit_cast<std::uint64_t>(main));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(backdoor_accuracy(
                    model, scenario.task.backdoor_test,
                    scenario.backdoor.target_class)),
                std::bit_cast<std::uint64_t>(backdoor));
    }
  }
}

TEST(PipelineParity, RunRepeatedNestsPipelinedRunsInsidePool) {
  // Each repetition is a pool task whose rounds track accuracy; the
  // help-drain join must not deadlock a saturated pool, and results
  // must equal standalone runs. (The single-worker case runs in
  // ParallelExperiment.ParallelEngineNestsInPipelinedRepeatedRuns.)
  const ScopedGlobalPool pool(4);
  ExperimentConfig cfg = small_config();
  cfg.rounds = 14;
  cfg.schedule.poison_rounds = {14};
  const auto repeated = run_repeated(cfg, 3, 70);
  ASSERT_EQ(repeated.runs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(i);
    const auto standalone = run_experiment(cfg, 70 + i);
    expect_results_identical(repeated.runs[i], standalone);
  }
}

TEST(PipelineParity, TransportModePipelinedMatchesSerialBitExact) {
  // Transport mode routes proposals and votes through the wire-protocol
  // round driver, with accuracy tracked every round; a 4-worker run must
  // match the 1-worker (serial) baseline in records and byte accounting.
  ExperimentConfig cfg = small_config();
  cfg.rounds = 16;
  cfg.schedule.poison_rounds = {14};
  cfg.transport = true;
  const auto run_on = [&cfg](std::size_t workers) {
    const ScopedGlobalPool pool(workers);
    return run_experiment(cfg, 37);
  };
  const auto parallel = run_on(4);
  const auto serial = run_on(1);
  expect_results_identical(parallel, serial);
  EXPECT_GT(serial.wire_bytes, 0u);
  EXPECT_EQ(parallel.wire_bytes, serial.wire_bytes);
  EXPECT_EQ(parallel.comm.total_bytes(), serial.comm.total_bytes());
}

}  // namespace
}  // namespace baffle
