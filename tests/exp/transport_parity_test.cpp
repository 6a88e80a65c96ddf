// Transport determinism: running the round loop over the wire protocol
// (ExperimentConfig::transport — typed frames, per-client sessions, an
// in-process transport, actor tasks on the thread pool) must produce
// RoundRecords bit-identical to the direct in-process path. Serializing
// a model and voting on a decoded copy is only a refactor if not a
// single bit moves — these tests are the proof.

#include <gtest/gtest.h>

#include <ostream>
#include <string>

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
    EXPECT_EQ(a.injections[i].adaptive, b.injections[i].adaptive);
    EXPECT_EQ(a.injections[i].alpha, b.injections[i].alpha);
    EXPECT_EQ(a.injections[i].rejected, b.injections[i].rejected);
    EXPECT_EQ(a.injections[i].reject_votes, b.injections[i].reject_votes);
    EXPECT_EQ(a.injections[i].total_voters, b.injections[i].total_voters);
  }
  EXPECT_EQ(a.rates.false_positives, b.rates.false_positives);
  EXPECT_EQ(a.rates.false_negatives, b.rates.false_negatives);
  EXPECT_EQ(a.final_main_accuracy, b.final_main_accuracy);
  EXPECT_EQ(a.final_backdoor_accuracy, b.final_backdoor_accuracy);
  EXPECT_EQ(a.adaptive_skipped, b.adaptive_skipped);
}

TEST(TransportParity, TransportRunMatchesInProcessBitExact) {
  ExperimentConfig cfg = small_config();
  cfg.transport = true;
  const auto wired = run_experiment(cfg, 31);
  cfg.transport = false;
  const auto direct = run_experiment(cfg, 31);
  expect_results_identical(wired, direct);

  // Exact accounting: the tracker's per-category totals must equal the
  // raw bytes the channels counted — to the byte, in both directions.
  EXPECT_GT(wired.wire_bytes, 0u);
  EXPECT_EQ(wired.comm.total_bytes(), wired.wire_bytes);
  // The direct path does no wire accounting at all.
  EXPECT_EQ(direct.wire_bytes, 0u);
  EXPECT_EQ(direct.comm.total_bytes(), 0u);
}

TEST(TransportParity, RejectionHeavyRunMatchesBitExact) {
  // Rejected rounds exercise the reject half of the RoundResult
  // protocol (validators roll back the candidate) and the commit-clock
  // in the tracker; force plenty of them.
  ExperimentConfig cfg = small_config();
  cfg.feedback.quorum = 1;
  cfg.feedback.validator.tau_margin = 0.5;
  cfg.transport = true;
  const auto wired = run_experiment(cfg, 35);
  cfg.transport = false;
  const auto direct = run_experiment(cfg, 35);
  std::size_t rejects = 0;
  for (const auto& r : direct.rounds) rejects += r.rejected ? 1u : 0u;
  EXPECT_GT(rejects, 0u);
  expect_results_identical(wired, direct);
  EXPECT_EQ(wired.comm.total_bytes(), wired.wire_bytes);
}

TEST(TransportParity, SeparateValidatorsAndDropoutMatchBitExact) {
  // Independent validator draws change who holds which window state
  // (sessions go stale and re-sync via larger deltas), and dropout
  // exercises footnote 1's accept-by-default on short voter sets.
  ExperimentConfig cfg = small_config();
  cfg.separate_validators = true;
  cfg.validator_dropout = 0.3;
  cfg.transport = true;
  const auto wired = run_experiment(cfg, 37);
  cfg.transport = false;
  const auto direct = run_experiment(cfg, 37);
  expect_results_identical(wired, direct);
  EXPECT_EQ(wired.comm.total_bytes(), wired.wire_bytes);
}

/// One defender/attacker combination the wire path must reproduce.
struct WireCase {
  const char* name;
  DefenseMode mode;
  VoteStrategy vote;
  bool dba = false;
  bool adaptive = false;
};

void PrintTo(const WireCase& c, std::ostream* os) { *os << c.name; }

class TransportParityCase : public ::testing::TestWithParam<WireCase> {};

// Every defender mode against every malicious-vote strategy, plus the
// DBA colluders (several malicious voter ids) and the adaptive attacker
// (whose self-check reads the defense's window mid-round): the wire
// path must reproduce the direct path's records and injections, and its
// tracker must equal the channel byte counts, on a 1- and a 4-worker
// pool.
TEST_P(TransportParityCase, WireMatchesDirectOnOneAndFourWorkers) {
  const WireCase& c = GetParam();
  ExperimentConfig cfg = small_config();
  cfg.feedback.mode = c.mode;
  cfg.malicious_vote = c.vote;
  if (c.dba) {
    cfg.use_dba = true;
    cfg.scenario.backdoor_override = BackdoorKind::kTrigger;
    cfg.dba_colluders = 3;
  }
  cfg.schedule.adaptive = c.adaptive;
  // At this seed the attacker validates poisoned and clean rounds, so
  // both lying strategies change some round's tally: an actor that
  // dropped its strategy fails every C and C+S lying case.
  constexpr std::uint64_t kSeed = 43;
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    const ScopedGlobalPool pool(workers);
    cfg.transport = true;
    const auto wired = run_experiment(cfg, kSeed);
    cfg.transport = false;
    const auto direct = run_experiment(cfg, kSeed);
    expect_results_identical(wired, direct);
    EXPECT_GT(wired.wire_bytes, 0u);
    EXPECT_EQ(wired.comm.total_bytes(), wired.wire_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, TransportParityCase,
    ::testing::Values(
        WireCase{"C_honest", DefenseMode::kClientsOnly, VoteStrategy::kHonest},
        WireCase{"C_accept", DefenseMode::kClientsOnly,
                 VoteStrategy::kAlwaysAccept},
        WireCase{"C_reject", DefenseMode::kClientsOnly,
                 VoteStrategy::kAlwaysReject},
        WireCase{"S_honest", DefenseMode::kServerOnly, VoteStrategy::kHonest},
        WireCase{"S_accept", DefenseMode::kServerOnly,
                 VoteStrategy::kAlwaysAccept},
        WireCase{"S_reject", DefenseMode::kServerOnly,
                 VoteStrategy::kAlwaysReject},
        WireCase{"CS_honest", DefenseMode::kClientsAndServer,
                 VoteStrategy::kHonest},
        WireCase{"CS_accept", DefenseMode::kClientsAndServer,
                 VoteStrategy::kAlwaysAccept},
        WireCase{"CS_reject", DefenseMode::kClientsAndServer,
                 VoteStrategy::kAlwaysReject},
        WireCase{"CS_dba", DefenseMode::kClientsAndServer,
                 VoteStrategy::kAlwaysAccept, /*dba=*/true},
        WireCase{"CS_adaptive", DefenseMode::kClientsAndServer,
                 VoteStrategy::kAlwaysAccept, /*dba=*/false,
                 /*adaptive=*/true}),
    [](const ::testing::TestParamInfo<WireCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace baffle
