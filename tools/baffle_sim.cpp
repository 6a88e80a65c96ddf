// baffle_sim — command-line driver for the defended-FL simulation.
//
// Runs one experiment with every knob exposed as a flag and prints the
// per-round log plus the detection summary. Examples:
//
//   baffle_sim                                  # paper defaults
//   baffle_sim --task=femnist --mode=C --q=7
//   baffle_sim --adaptive=1 --seed=7 --rounds=80
//   baffle_sim --attack=dba --colluders=4
//   baffle_sim --separate-validators=1 --validator-dropout=0.2
//
// Run with --help for the full flag list.

#include <cstdio>
#include <exception>
#include <string>

#include "cli_flags.hpp"
#include "exp/experiment.hpp"
#include "util/metric_names.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace baffle;

constexpr const char* kHelp =
    "baffle_sim — defended federated-learning simulation\n"
    "\n"
    "scenario:\n"
    "  --task=vision|femnist      dataset surrogate (default vision)\n"
    "  --clients=N                population size (default: preset)\n"
    "  --server-frac=F            server holdout share (default 0.10/0.01)\n"
    "  --alpha=A                  Dirichlet non-IID parameter (0.9)\n"
    "  --iid=0|1                  IID split instead of Dirichlet\n"
    "  --secure-agg=0|1           pairwise-masked aggregation (1)\n"
    "defense:\n"
    "  --mode=C|S|C+S             validating entities (C+S)\n"
    "  --q=N                      quorum threshold (5)\n"
    "  --lookback=N               history window l (20)\n"
    "  --defense-start=N          first enforced round (20)\n"
    "  --no-defense=1             disable the feedback loop\n"
    "  --separate-validators=0|1  independent validating set (0)\n"
    "  --validator-dropout=F      non-response probability (0)\n"
    "attack:\n"
    "  --attack=replacement|dba|none   (replacement)\n"
    "  --adaptive=0|1             defense-aware attacker (0)\n"
    "  --colluders=N              DBA colluder count (4)\n"
    "  --poison-rounds=a,b,c      injection rounds (30,35,40)\n"
    "  --vote=honest|accept|reject  malicious validators' votes (accept)\n"
    "run:\n"
    "  --rounds=N                 total rounds (50)\n"
    "  --transport=0|1            run rounds over the wire protocol\n"
    "                             (src/net; prints exact byte counts)\n"
    "  --seed=N                   RNG seed (1)\n"
    "  --from-scratch=1           skip stable-model pre-training\n"
    "  --quiet=1                  summary only\n"
    "  --metrics=PATH             dump runtime metrics CSV on exit";

enum class Attack { kReplacement, kDba, kNone };

}  // namespace

int main(int argc, char** argv) {
  cli::Flags flags;
  if (const auto exit_code = cli::parse_flags(argc, argv, kHelp, flags)) {
    return *exit_code;
  }

  ExperimentConfig cfg;
  const TaskKind task = flags.choice(
      "task", TaskKind::kVision10,
      {{"vision", TaskKind::kVision10}, {"femnist", TaskKind::kFemnist62}});
  const double default_sfrac = task == TaskKind::kFemnist62 ? 0.01 : 0.10;
  const double sfrac = flags.num("server-frac", default_sfrac);
  cfg.scenario = task == TaskKind::kFemnist62 ? femnist_scenario(sfrac)
                                              : vision_scenario(sfrac);
  if (flags.has("clients")) {
    cfg.scenario.num_clients = flags.count("clients", 50);
  }
  cfg.scenario.dirichlet_alpha = flags.num("alpha", 0.9);
  cfg.scenario.iid = flags.flag("iid", false);
  cfg.scenario.secure_aggregation = flags.flag("secure-agg", true);

  cfg.feedback.mode =
      flags.choice("mode", DefenseMode::kClientsAndServer,
                   {{"C", DefenseMode::kClientsOnly},
                    {"S", DefenseMode::kServerOnly},
                    {"C+S", DefenseMode::kClientsAndServer}});
  cfg.feedback.quorum = flags.count("q", 5);
  cfg.feedback.validator.lookback = flags.count("lookback", 20);
  cfg.defense_start = flags.count("defense-start", 20);
  cfg.defense_enabled = !flags.flag("no-defense", false);
  cfg.separate_validators = flags.flag("separate-validators", false);
  cfg.validator_dropout = flags.num("validator-dropout", 0.0);

  const Attack attack = flags.choice("attack", Attack::kReplacement,
                                     {{"replacement", Attack::kReplacement},
                                      {"dba", Attack::kDba},
                                      {"none", Attack::kNone}});
  cfg.schedule = AttackSchedule::stable_scenario();
  if (flags.has("poison-rounds")) {
    cfg.schedule.poison_rounds = flags.counts("poison-rounds");
  }
  if (attack == Attack::kNone) cfg.schedule.poison_rounds.clear();
  cfg.schedule.adaptive = flags.flag("adaptive", false);
  if (attack == Attack::kDba) {
    cfg.use_dba = true;
    cfg.scenario.backdoor_override = BackdoorKind::kTrigger;
    cfg.dba_colluders = flags.count("colluders", 4);
  }
  cfg.malicious_vote =
      flags.choice("vote", VoteStrategy::kAlwaysAccept,
                   {{"honest", VoteStrategy::kHonest},
                    {"accept", VoteStrategy::kAlwaysAccept},
                    {"reject", VoteStrategy::kAlwaysReject}});

  cfg.rounds = flags.count("rounds", 50);
  cfg.stable_start = !flags.flag("from-scratch", false);
  cfg.transport = flags.flag("transport", false);

  const auto seed = static_cast<std::uint64_t>(flags.integer("seed", 1));
  const bool quiet = flags.flag("quiet", false);

  // The names were validated by the choice() calls above.
  std::printf("baffle_sim: task=%s mode=%s q=%zu l=%zu rounds=%zu seed=%llu"
              " attack=%s%s\n\n",
              flags.str("task", "vision").c_str(),
              flags.str("mode", "C+S").c_str(), cfg.feedback.quorum,
              cfg.feedback.validator.lookback, cfg.rounds,
              static_cast<unsigned long long>(seed),
              flags.str("attack", "replacement").c_str(),
              cfg.schedule.adaptive ? " (adaptive)" : "");

  ExperimentResult result;
  try {
    // Inside the try: the first global() call builds the pool, and a
    // rejected BAFFLE_THREADS throws there, before any config check.
    (void)ThreadPool::global();
    result = run_experiment(cfg, seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "baffle_sim: %s\n", e.what());
    return 1;
  }

  if (!quiet) {
    std::printf("%-7s %-8s %-9s %-9s %-9s %s\n", "round", "poison",
                "verdict", "votes", "main", "backdoor");
    for (const auto& r : result.rounds) {
      if (!r.poisoned && r.round % 5 != 0) continue;
      std::printf("%-7zu %-8s %-9s %zu/%-7zu %-9.3f %.3f\n", r.round,
                  r.poisoned ? "YES" : "-",
                  !r.defense_active ? "(off)"
                                    : (r.rejected ? "REJECT" : "accept"),
                  r.reject_votes, r.num_validators, r.main_accuracy,
                  r.backdoor_accuracy);
    }
    std::printf("\n");
  }
  std::printf("clean rounds: %zu (false positives: %zu, rate %.3f)\n",
              result.rates.clean_rounds, result.rates.false_positives,
              result.rates.fp_rate);
  std::printf("poisoned rounds: %zu (false negatives: %zu, rate %.3f)\n",
              result.rates.poisoned_rounds, result.rates.false_negatives,
              result.rates.fn_rate);
  if (result.adaptive_skipped > 0) {
    std::printf("adaptive attacker skipped %zu scheduled rounds\n",
                result.adaptive_skipped);
  }
  std::printf("final main accuracy: %.3f, backdoor accuracy: %.3f\n",
              result.final_main_accuracy, result.final_backdoor_accuracy);
  if (cfg.transport) {
    const auto& comm = result.comm;
    std::printf("wire traffic (exact): %llu bytes — %llu download, "
                "%llu upload, %llu history, %llu control\n",
                static_cast<unsigned long long>(comm.total_bytes()),
                static_cast<unsigned long long>(comm.model_download_bytes),
                static_cast<unsigned long long>(comm.update_upload_bytes),
                static_cast<unsigned long long>(comm.history_bytes),
                static_cast<unsigned long long>(comm.control_bytes));
  }

  const auto& registry = MetricsRegistry::global();
  if (registry.timer_count(metric::kBuildScenario) > 0) {
    std::printf("set-up: %.2f ms scenario, %.2f ms pretraining, "
                "%.2f ms defense init\n",
                registry.timer_mean_ms(metric::kBuildScenario),
                registry.timer_mean_ms(metric::kPretrain),
                registry.timer_mean_ms(metric::kDefenseInit));
  }
  const std::uint64_t trains = registry.timer_count(metric::kRoundTrain);
  if (trains > 0) {
    std::printf("round training: %.2f ms/round over %llu rounds\n",
                registry.timer_mean_ms(metric::kRoundTrain),
                static_cast<unsigned long long>(trains));
  }
  const std::uint64_t evals = registry.timer_count(metric::kRoundEval);
  if (evals > 0) {
    std::printf("defense evaluation: %.2f ms/round over %llu rounds "
                "(cache: %llu hits / %llu misses, %llu promotions, "
                "%llu candidate reuses)\n",
                registry.timer_mean_ms(metric::kRoundEval),
                static_cast<unsigned long long>(evals),
                static_cast<unsigned long long>(
                    registry.counter(metric::kCacheHits)),
                static_cast<unsigned long long>(
                    registry.counter(metric::kCacheMisses)),
                static_cast<unsigned long long>(
                    registry.counter(metric::kCachePromotions)),
                static_cast<unsigned long long>(
                    registry.counter(metric::kCandidateReuse)));
  }
  const std::uint64_t accuracy_evals =
      registry.timer_count(metric::kRoundAccuracy);
  if (accuracy_evals > 0) {
    std::printf("accuracy tracking: %.2f ms/round over %llu rounds\n",
                registry.timer_mean_ms(metric::kRoundAccuracy),
                static_cast<unsigned long long>(accuracy_evals));
  }
  const std::uint64_t engine_runs = registry.timer_count(metric::kEngineRun);
  if (engine_runs > 0) {
    std::printf("eval engine: %llu batched passes over %llu tiles — "
                "bind %.2f ms, run %.2f ms\n",
                static_cast<unsigned long long>(engine_runs),
                static_cast<unsigned long long>(
                    registry.counter(metric::kEngineTiles)),
                registry.timer_mean_ms(metric::kEngineBind),
                registry.timer_mean_ms(metric::kEngineRun));
  }
  if (flags.has("metrics")) {
    const std::string path = flags.str("metrics", "metrics.csv");
    try {
      registry.dump_csv(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "baffle_sim: --metrics failed: %s\n", e.what());
      return 1;
    }
    std::printf("metrics written to %s\n", path.c_str());
  }
  return 0;
}
