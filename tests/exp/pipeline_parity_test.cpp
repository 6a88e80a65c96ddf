// Round-pipelining determinism: the overlapped accuracy tracking
// (ScenarioConfig::pipeline_rounds) evaluates an immutable snapshot of
// the committed parameters on a pool task, so every RoundRecord must be
// bit-identical to the serial path — timings are the only fields
// allowed to differ. Both arms run on a 4-worker global pool
// (ScopedGlobalPool), so the overlap is real on any host.

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

TEST(PipelineParity, PipelinedRunMatchesSerialBitExact) {
  const ScopedGlobalPool pool(4);
  ExperimentConfig cfg = small_config();
  cfg.scenario.pipeline_rounds = true;
  const auto pipelined = run_experiment(cfg, 31);
  cfg.scenario.pipeline_rounds = false;
  const auto serial = run_experiment(cfg, 31);
  expect_results_identical(pipelined, serial);
}

TEST(PipelineParity, PipelinedAdaptiveRunMatchesSerialBitExact) {
  // The adaptive attacker pulls the defense window mid-round; the
  // overlapped accuracy task must not perturb any of its decisions.
  const ScopedGlobalPool pool(4);
  ExperimentConfig cfg = small_config();
  cfg.schedule.adaptive = true;
  cfg.scenario.pipeline_rounds = true;
  const auto pipelined = run_experiment(cfg, 33);
  cfg.scenario.pipeline_rounds = false;
  const auto serial = run_experiment(cfg, 33);
  expect_results_identical(pipelined, serial);
}

TEST(PipelineParity, PipelinedRejectionRoundsKeepOldSnapshot) {
  // Force rejections (quorum 1 + strict margin) so rejected rounds'
  // records are produced from the *previous* committed snapshot, and
  // check those against the serial path too.
  const ScopedGlobalPool pool(4);
  ExperimentConfig cfg = small_config();
  cfg.feedback.quorum = 1;
  cfg.feedback.validator.tau_margin = 0.5;
  cfg.scenario.pipeline_rounds = true;
  const auto pipelined = run_experiment(cfg, 35);
  cfg.scenario.pipeline_rounds = false;
  const auto serial = run_experiment(cfg, 35);
  std::size_t rejects = 0;
  for (const auto& r : serial.rounds) rejects += r.rejected ? 1u : 0u;
  EXPECT_GT(rejects, 0u);
  expect_results_identical(pipelined, serial);
}

TEST(PipelineParity, RunRepeatedNestsPipelinedRunsInsidePool) {
  // Each repetition is itself a pool task that submits pipelined
  // accuracy tasks; the help-drain join must not deadlock a saturated
  // pool, and results must equal standalone runs. (The single-worker
  // case runs in ParallelExperiment.ParallelEngineNestsInPipelined-
  // RepeatedRuns.)
  const ScopedGlobalPool pool(4);
  ExperimentConfig cfg = small_config();
  cfg.rounds = 14;
  cfg.schedule.poison_rounds = {14};  // round 18 is never reached
  cfg.scenario.pipeline_rounds = true;
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
  // round driver; the graph-scheduled eval nodes must not perturb any
  // of its decisions or byte accounting.
  const ScopedGlobalPool pool(4);
  ExperimentConfig cfg = small_config();
  cfg.rounds = 16;
  cfg.schedule.poison_rounds = {14};  // round 18 is never reached
  cfg.transport = true;
  cfg.scenario.pipeline_rounds = true;
  const auto pipelined = run_experiment(cfg, 37);
  cfg.scenario.pipeline_rounds = false;
  const auto serial = run_experiment(cfg, 37);
  expect_results_identical(pipelined, serial);
  EXPECT_EQ(pipelined.wire_bytes, serial.wire_bytes);
  EXPECT_EQ(pipelined.comm.total_bytes(), serial.comm.total_bytes());
}

}  // namespace
}  // namespace baffle
