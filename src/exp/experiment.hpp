#pragma once
// Experiment runner: one defended FL run end-to-end, plus seeded
// repetition with mean±std aggregation. All paper tables/figures are
// parameterizations of run_experiment (see DESIGN.md §4).

#include "core/defense.hpp"
#include "exp/scenario.hpp"
#include "fl/comm.hpp"
#include "exp/schedule.hpp"
#include "attack/adaptive.hpp"
#include "metrics/rates.hpp"
#include "nn/multi_eval.hpp"
#include "util/stats.hpp"

namespace baffle {

struct ExperimentConfig {
  ScenarioConfig scenario;
  FeedbackConfig feedback;
  AttackSchedule schedule;

  std::size_t rounds = 50;
  /// Round from which the feedback loop's verdicts are enforced
  /// (earlier rounds always commit, building the trusted history).
  std::size_t defense_start = 20;
  bool defense_enabled = true;

  /// Stable-model scenario: pre-train the global model centrally before
  /// round 1 (stands in for the paper's 10,000 clean FL rounds).
  bool stable_start = true;
  std::size_t pretrain_epochs = 30;

  /// Attacker knobs. boost < 0 selects γ = N/λ automatically. The
  /// attacker trains with a lower learning rate and more epochs than the
  /// honest clients (Bagdasaryan et al.'s recipe for keeping main-task
  /// accuracy high while learning the backdoor sub-task).
  double attack_poison_fraction = 0.3;
  double attack_boost = -1.0;
  std::size_t attack_epochs = 8;
  float attack_learning_rate = 0.05f;
  /// Extra clean samples granted to the attacker beyond its own shard
  /// (Bagdasaryan et al.'s attacker holds a substantial local dataset;
  /// a ~45-sample shard would make both the replacement attack and the
  /// adaptive self-check unrealistically weak).
  std::size_t attack_aux_samples = 400;
  AdaptiveAttackConfig adaptive;  // used when schedule.adaptive

  /// How attacker-controlled validators vote (§IV-B).
  VoteStrategy malicious_vote = VoteStrategy::kAlwaysAccept;

  /// Algorithm 1's original form draws an independent validating set
  /// each round; the default reuses the contributors (§VI-D's
  /// communication optimization). Both are supported.
  bool separate_validators = false;
  /// Probability that a selected validating client never responds;
  /// per footnote 1 the server accepts unless q rejections arrive, so
  /// non-responders are simply absent votes.
  double validator_dropout = 0.0;

  /// Multi-client distributed backdoor attack (DBA, Xie et al.) instead
  /// of single-client model replacement. Requires the scenario's
  /// backdoor kind to be kTrigger. Mutually exclusive with
  /// schedule.adaptive.
  bool use_dba = false;
  std::size_t dba_colluders = 4;

  /// Evaluate main/backdoor accuracy each round (needed for Fig. 4
  /// series; costs one test-set pass per round).
  bool track_accuracy = true;

  /// Run every round through the wire protocol and round server
  /// (src/net): typed frames over an in-process transport, per-client
  /// actor sessions, straggler deadlines, and exact per-frame
  /// communication accounting in ExperimentResult::comm. RoundRecords
  /// are bit-identical to the in-process path (DESIGN.md §13).
  bool transport = false;
};

/// One injection the attacker actually submitted.
struct InjectionRecord {
  std::size_t round = 0;
  bool adaptive = false;
  double alpha = 1.0;          // adaptive scale-back factor
  bool rejected = false;
  std::size_t reject_votes = 0;
  std::size_t total_voters = 0;
};

struct ExperimentResult {
  std::vector<RoundRecord> rounds;
  std::vector<InjectionRecord> injections;
  DetectionRates rates;
  double final_main_accuracy = 0.0;
  double final_backdoor_accuracy = 0.0;
  std::size_t adaptive_skipped = 0;  // rounds the adaptive attacker sat out
  /// Transport mode only: exact per-category wire traffic (§VI-D
  /// measured, not estimated) and its channel-counted ground truth —
  /// the two match byte-for-byte. Zero otherwise.
  CommStats comm;
  std::uint64_t wire_bytes = 0;
};

ExperimentResult run_experiment(const ExperimentConfig& config,
                                std::uint64_t seed);

/// run_experiment's per-round accuracy tracking: two evaluation engines
/// (DESIGN.md §14) bound once to the test and backdoor test sets, so a
/// round evaluates the model without re-packing either set. `main` is
/// evaluate_confusion(model, test).accuracy() and `backdoor` is
/// backdoor_accuracy(model, backdoor_test, target_class), bit for bit.
/// The datasets must outlive the tracker.
class AccuracyTracker {
 public:
  AccuracyTracker(const MlpConfig& arch, const Dataset& test,
                  const Dataset& backdoor_test, int target_class);

  struct Accuracies {
    double main = 0.0;
    double backdoor = 0.0;
  };
  /// Accuracies of the model with flat parameters `params` (Mlp layout).
  Accuracies measure(std::span<const float> params);

 private:
  const Dataset& test_;
  const Dataset& backdoor_test_;
  int target_class_;
  MultiModelEval test_engine_;
  MultiModelEval backdoor_engine_;
  std::vector<std::size_t> test_preds_;
  std::vector<std::size_t> backdoor_preds_;
};

/// Repeats the experiment with seeds base_seed, base_seed+1, … and
/// aggregates FP/FN rates (mean ± sample std, ddof = 1, the paper's
/// 5-run convention). Repetitions run in parallel on the global thread pool.
struct RepeatedResult {
  MeanStd fp;
  MeanStd fn;
  std::vector<ExperimentResult> runs;
};

RepeatedResult run_repeated(const ExperimentConfig& config, std::size_t reps,
                            std::uint64_t base_seed);

}  // namespace baffle
