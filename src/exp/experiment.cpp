#include "exp/experiment.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "attack/backdoor.hpp"
#include "attack/dba.hpp"
#include "metrics/confusion.hpp"
#include "net/round_driver.hpp"
#include "util/metric_names.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace baffle {

namespace {

/// Defense-aware attacker (Table II / Fig. 5): reuses the defense's own
/// Validator on the attacker's local data as the self-check for
/// craft_adaptive_update. Falls back to an honest update when no scale
/// α passes (the attacker sits the round out).
class AdaptiveProvider final : public UpdateProvider {
 public:
  AdaptiveProvider(HonestUpdateProvider honest, std::size_t attacker_id,
                   Dataset attacker_clean, Dataset backdoor_pool,
                   AdaptiveAttackConfig config, MlpConfig arch,
                   ValidatorConfig validator_config,
                   const BaffleDefense* defense)
      : honest_(std::move(honest)),
        attacker_id_(attacker_id),
        attacker_clean_(attacker_clean),
        backdoor_pool_(std::move(backdoor_pool)),
        config_(std::move(config)),
        defense_(defense),
        self_validator_(std::move(attacker_clean), std::move(arch),
                        validator_config) {}

  void arm(bool poison) { armed_ = poison; }
  bool submitted() const { return submitted_.load(std::memory_order_relaxed); }
  double alpha() const { return alpha_.load(std::memory_order_relaxed); }

  ParamVec update_for(std::size_t client_id, const Mlp& global,
                      Rng& rng) override {
    if (client_id != attacker_id_ || !armed_) {
      return honest_.update_for(client_id, global, rng);
    }
    // Only the attacker's (unique) update task reaches this branch, so
    // self_validator_ has a single caller per round. The task may run on
    // a pool worker; submitted_/alpha_ are atomics only so the round
    // loop's reads after the join stay race-free by construction rather
    // than by argument.
    const auto window = defense_->current_window();
    const AttackerSideCheck check = [&](const ParamVec& candidate) {
      const ValidationOutcome o =
          self_validator_.validate(candidate, window);
      if (o.abstained) return false;  // no basis to judge: stay silent
      // The defense's own strict rule; behavior cloning usually makes it
      // pass on the attacker's data.
      return o.phi <= o.tau;
    };
    const auto crafted = craft_adaptive_update(
        global, attacker_clean_, backdoor_pool_, config_, check, rng);
    if (!crafted) {
      submitted_.store(false, std::memory_order_relaxed);
      alpha_.store(0.0, std::memory_order_relaxed);
      return honest_.update_for(client_id, global, rng);
    }
    submitted_.store(true, std::memory_order_relaxed);
    alpha_.store(crafted->alpha, std::memory_order_relaxed);
    return crafted->update;
  }

 private:
  HonestUpdateProvider honest_;
  std::size_t attacker_id_;
  Dataset attacker_clean_;
  Dataset backdoor_pool_;
  AdaptiveAttackConfig config_;
  const BaffleDefense* defense_;
  Validator self_validator_;
  bool armed_ = false;
  std::atomic<bool> submitted_{false};
  std::atomic<double> alpha_{0.0};
};

/// Draws `n` samples from `pool` with per-class probabilities
/// proportional to `weights` — used to enlarge the attacker's dataset
/// while PRESERVING its non-IID skew: a realistic powerful attacker has
/// more data, not a uniform view of everyone's data (which no FL client
/// has). The residual bias is what lets honest validators catch
/// injections the attacker's self-check approves (§VI-C).
Dataset biased_sample(const Dataset& pool,
                      const std::vector<std::size_t>& weights, std::size_t n,
                      Rng& rng) {
  std::vector<std::vector<std::size_t>> by_class(pool.num_classes());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    by_class[static_cast<std::size_t>(pool.y(i))].push_back(i);
  }
  std::vector<double> w(weights.size(), 0.0);
  for (std::size_t c = 0; c < weights.size(); ++c) {
    if (!by_class[c].empty()) w[c] = static_cast<double>(weights[c]);
  }
  Dataset out(pool.dim(), pool.num_classes());
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  if (total <= 0.0) return out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = rng.categorical(w);
    const auto& pool_c = by_class[c];
    const std::size_t row = pool_c[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(pool_c.size()) - 1))];
    out.add(pool.x(row), pool.y(row));
  }
  return out;
}

void ensure_member(std::vector<std::size_t>& ids, std::size_t member,
                   Rng& rng) {
  for (std::size_t id : ids) {
    if (id == member) return;
  }
  const auto slot = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
  ids[slot] = member;
}

/// Forces every id in `members` into the selection, never displacing a
/// previously-placed member.
void ensure_members(std::vector<std::size_t>& ids,
                    const std::vector<std::size_t>& members) {
  if (members.size() > ids.size()) {
    throw std::invalid_argument("ensure_members: too many members");
  }
  for (std::size_t member : members) {
    if (std::find(ids.begin(), ids.end(), member) != ids.end()) continue;
    for (auto& slot : ids) {
      if (std::find(members.begin(), members.end(), slot) ==
          members.end()) {
        slot = member;
        break;
      }
    }
  }
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config,
                                std::uint64_t seed) {
  // Fail on impossible defender configs (q unreachable, degenerate
  // window), colluder counts, dropout probabilities and rounds the run
  // never reaches before any training happens.
  if (config.defense_enabled) {
    validate_feedback_config(config.feedback,
                             config.scenario.clients_per_round);
  }
  // Every colluder must fit in one round's contributor set
  // (ensure_members), which also keeps the colluder list inside the
  // client population.
  if (config.use_dba && (config.dba_colluders < 1 ||
                         config.dba_colluders >
                             config.scenario.clients_per_round)) {
    throw std::invalid_argument(
        "run_experiment: dba_colluders = " +
        std::to_string(config.dba_colluders) +
        " must be in [1, clients_per_round = " +
        std::to_string(config.scenario.clients_per_round) + "]");
  }
  // A probability: outside [0, 1] every validator would drop (FN 1.000),
  // and NaN would silently mean no dropout.
  if (!(config.validator_dropout >= 0.0 && config.validator_dropout <= 1.0)) {
    throw std::invalid_argument("run_experiment: validator_dropout = " +
                                std::to_string(config.validator_dropout) +
                                " must be in [0, 1]");
  }
  // A round the run never reaches injects nothing and reports a clean
  // FN rate; a defense that starts after the last round never runs.
  // Both would exit with results that look valid.
  for (const std::size_t round : config.schedule.poison_rounds) {
    if (round < 1 || round > config.rounds) {
      throw std::invalid_argument(
          "run_experiment: schedule.poison_rounds holds round " +
          std::to_string(round) + ", outside [1, rounds = " +
          std::to_string(config.rounds) + "]");
    }
  }
  if (config.defense_enabled && config.defense_start > config.rounds) {
    throw std::invalid_argument(
        "run_experiment: defense_start = " +
        std::to_string(config.defense_start) + " is past rounds = " +
        std::to_string(config.rounds));
  }
  // Set-up timers: each lap() records the time since the previous one.
  auto lap_start = std::chrono::steady_clock::now();
  const auto lap = [&lap_start](const char* timer) {
    const auto now = std::chrono::steady_clock::now();
    MetricsRegistry::global().add_timer(
        timer, std::chrono::duration<double>(now - lap_start).count());
    lap_start = now;
  };
  Rng rng(seed);
  Scenario scenario = build_scenario(config.scenario, rng);
  FlServer server(scenario.arch, scenario.fl, rng.next_u64());
  lap(metric::kBuildScenario);

  // Stable-model scenario: centralized pre-training stands in for the
  // paper's 10,000 clean FL rounds (DESIGN.md §2).
  if (config.stable_start) {
    TrainConfig pre;
    pre.epochs = config.pretrain_epochs;
    pre.batch_size = 64;
    pre.sgd.learning_rate = 0.05f;
    Rng pre_rng = rng.fork();
    train_sgd(server.global_model(), scenario.task.train.features(),
              scenario.task.train.labels(), pre, pre_rng);
  }
  lap(metric::kPretrain);

  BaffleDefense defense(scenario.arch, config.feedback,
                        scenario.server_holdout);
  defense.on_commit(server.version(), server.global_model().parameters());
  lap(metric::kDefenseInit);

  // Attacker wiring. The attacker's clean pool is its shard plus the
  // configured auxiliary samples (see ExperimentConfig).
  const std::size_t attacker = scenario.attacker_id;
  Dataset attacker_clean = scenario.clients[attacker].data();
  if (config.attack_aux_samples > 0 && !attacker_clean.empty()) {
    // Smoothed weights: mostly the attacker's own class mix, plus a
    // floor so it sees at least some of every class it already holds.
    auto weights = attacker_clean.class_counts();
    for (auto& c : weights) {
      if (c > 0) c += 1;
    }
    attacker_clean.merge(biased_sample(scenario.task.train, weights,
                                       config.attack_aux_samples, rng));
  }
  HonestUpdateProvider honest(&scenario.clients, scenario.fl.local_train);

  ModelReplacementConfig replacement;
  replacement.task = scenario.backdoor;
  replacement.poison_fraction = config.attack_poison_fraction;
  replacement.boost =
      config.attack_boost > 0.0
          ? config.attack_boost
          : static_cast<double>(scenario.fl.total_clients) /
                scenario.fl.global_lr;
  replacement.train = scenario.fl.local_train;
  replacement.train.epochs = config.attack_epochs;
  replacement.train.sgd.learning_rate = config.attack_learning_rate;

  std::unique_ptr<MaliciousUpdateProvider> malicious;
  std::unique_ptr<AdaptiveProvider> adaptive;
  std::unique_ptr<DbaUpdateProvider> dba;
  if (config.use_dba) {
    if (config.schedule.adaptive) {
      throw std::invalid_argument("run_experiment: DBA cannot be adaptive");
    }
    if (scenario.backdoor.kind != BackdoorKind::kTrigger) {
      throw std::invalid_argument(
          "run_experiment: DBA requires a trigger-patch backdoor");
    }
    // Colluders: the m clients with the most data (each needs enough to
    // train a meaningful slice model).
    std::vector<std::size_t> order(scenario.clients.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return scenario.clients[a].data().size() >
             scenario.clients[b].data().size();
    });
    std::vector<std::size_t> colluders(
        order.begin(),
        order.begin() + static_cast<std::ptrdiff_t>(config.dba_colluders));
    std::vector<Dataset> colluder_data;
    colluder_data.reserve(colluders.size());
    for (std::size_t id : colluders) {
      colluder_data.push_back(scenario.clients[id].data());
    }
    DbaConfig dcfg;
    dcfg.num_parts = config.dba_colluders;
    dcfg.target_class = scenario.backdoor.target_class;
    dcfg.poison_fraction = config.attack_poison_fraction;
    // Split the replacement boost across the colluders.
    dcfg.per_client_boost =
        replacement.boost / static_cast<double>(config.dba_colluders);
    dcfg.train = replacement.train;
    dba = std::make_unique<DbaUpdateProvider>(
        honest, colluders, std::move(colluder_data),
        trigger_pattern(scenario.task.config), dcfg);
  } else if (config.schedule.adaptive) {
    AdaptiveAttackConfig acfg = config.adaptive;
    acfg.replacement = replacement;
    // Adaptive stealth: lighter poison blend unless caller overrode it.
    if (config.adaptive.replacement.poison_fraction ==
        ModelReplacementConfig{}.poison_fraction) {
      acfg.replacement.poison_fraction =
          std::min(0.2, replacement.poison_fraction);
    }
    adaptive = std::make_unique<AdaptiveProvider>(
        honest, attacker, attacker_clean, scenario.task.backdoor_train, acfg,
        scenario.arch, config.feedback.validator, &defense);
  } else {
    malicious = std::make_unique<MaliciousUpdateProvider>(
        honest, attacker, attacker_clean, scenario.task.backdoor_train,
        replacement);
  }
  UpdateProvider& provider =
      dba ? static_cast<UpdateProvider&>(*dba)
          : (adaptive ? static_cast<UpdateProvider&>(*adaptive)
                      : static_cast<UpdateProvider&>(*malicious));
  std::unordered_set<std::size_t> malicious_ids{attacker};
  if (dba) {
    malicious_ids.clear();
    malicious_ids.insert(dba->colluders().begin(), dba->colluders().end());
  }

  // Transport mode: the same rounds, but every exchange crosses the
  // wire protocol — actors per client, typed frames, exact byte
  // accounting. Bit-identical records by construction (DESIGN.md §13).
  std::optional<InProcTransport> transport;
  std::optional<TransportRoundDriver> driver;
  if (config.transport) {
    transport.emplace();
    driver.emplace(*transport, server, defense, scenario.clients, provider,
                   malicious_ids, config.malicious_vote);
  }

  const ClientSampler sampler(scenario.fl.total_clients,
                              scenario.fl.clients_per_round);
  ExperimentResult result;
  result.rounds.reserve(config.rounds);

  std::optional<AccuracyTracker> accuracy;
  if (config.track_accuracy) {
    accuracy.emplace(scenario.arch, scenario.task.test,
                     scenario.task.backdoor_test,
                     scenario.backdoor.target_class);
  }

  // Algorithm 1, one round after another on the calling thread: sample
  // and arm, propose, validate, then commit or roll back. The phases
  // fork-join on the global pool inside (client updates, masking, the
  // validators' engine tiles); the rounds themselves are strictly
  // serial, so every use of the main `rng` happens in one fixed order.
  for (std::size_t r = 1; r <= config.rounds; ++r) {
    const bool scheduled = config.schedule.is_poison_round(r);
    std::vector<std::size_t> contributors = sampler.sample_round(rng);
    if (scheduled) {
      if (dba) {
        ensure_members(contributors, dba->colluders());
      } else {
        ensure_member(contributors, attacker, rng);
      }
    }
    if (adaptive) adaptive->arm(scheduled);
    if (malicious) malicious->arm(scheduled);
    if (dba) dba->arm(scheduled);

    const auto train_start = std::chrono::steady_clock::now();
    FlServer::Proposal proposal =
        driver ? driver->propose_round(contributors, rng)
               : server.propose_round_with(contributors, provider, rng);
    const double train_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      train_start)
            .count();
    MetricsRegistry::global().add_timer(metric::kRoundTrain,
                                        train_seconds);

    const bool injected = scheduled && (!adaptive || adaptive->submitted());
    if (scheduled && adaptive && !adaptive->submitted()) {
      ++result.adaptive_skipped;
    }
    const bool active = config.defense_enabled && r >= config.defense_start &&
                        defense.ready();
    FeedbackDecision decision;
    double eval_seconds = 0.0;
    if (active) {
      // Validating set: the contributors (§VI-D optimization) or an
      // independently sampled set (Algorithm 1's original form).
      std::vector<std::size_t> validators =
          config.separate_validators ? sampler.sample_round(rng)
                                     : contributors;
      if (config.validator_dropout > 0.0) {
        std::erase_if(validators, [&](std::size_t) {
          return rng.bernoulli(config.validator_dropout);
        });
      }
      const auto eval_start = std::chrono::steady_clock::now();
      decision = driver ? driver->evaluate(proposal, validators)
                        : defense.evaluate(proposal.candidate_params,
                                           validators, scenario.clients,
                                           malicious_ids,
                                           config.malicious_vote);
      eval_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        eval_start)
              .count();
      MetricsRegistry::global().add_timer(metric::kRoundEval,
                                          eval_seconds);
    }

    const bool rejected = active && decision.reject;
    if (rejected) {
      server.discard(proposal);
      defense.on_reject();
      if (driver) {
        driver->finish_round(proposal, /*committed=*/false, server.version(),
                             decision);
      }
    } else {
      const std::uint64_t committed_version = server.commit(proposal);
      defense.on_commit(committed_version, proposal.candidate_params);
      if (driver) {
        driver->finish_round(proposal, /*committed=*/true, committed_version,
                             decision);
      }
    }

    RoundRecord record;
    record.round = r;
    record.defense_active = active;
    record.poisoned = injected;
    record.rejected = rejected;
    record.reject_votes = decision.reject_votes;
    record.num_validators = decision.total_voters;
    record.eval_ms = eval_seconds * 1e3;
    record.train_ms = train_seconds * 1e3;
    if (accuracy) {
      // The model the round left behind: the candidate if committed,
      // else the previous global model.
      const ScopedTimer accuracy_timer(metric::kRoundAccuracy);
      const AccuracyTracker::Accuracies acc =
          accuracy->measure(server.global_model().parameters());
      record.main_accuracy = acc.main;
      record.backdoor_accuracy = acc.backdoor;
    }
    result.rounds.push_back(record);

    if (injected) {
      InjectionRecord inj;
      inj.round = r;
      inj.adaptive = config.schedule.adaptive;
      inj.alpha = adaptive ? adaptive->alpha() : 1.0;
      inj.rejected = rejected;
      inj.reject_votes = decision.reject_votes;
      inj.total_voters = decision.total_voters;
      result.injections.push_back(inj);
    }
  }

  if (driver) {
    result.comm = driver->tracker().stats();
    result.wire_bytes = driver->wire_bytes();
  }
  result.rates = compute_detection_rates(result.rounds);
  if (!result.rounds.empty() && config.track_accuracy) {
    result.final_main_accuracy = result.rounds.back().main_accuracy;
    result.final_backdoor_accuracy = result.rounds.back().backdoor_accuracy;
  }
  return result;
}

AccuracyTracker::AccuracyTracker(const MlpConfig& arch, const Dataset& test,
                                 const Dataset& backdoor_test,
                                 int target_class)
    : test_(test),
      backdoor_test_(backdoor_test),
      target_class_(target_class),
      test_engine_(arch),
      backdoor_engine_(arch),
      test_preds_(test.size()),
      backdoor_preds_(backdoor_test.size()) {
  test_engine_.bind(test.features());
  backdoor_engine_.bind(backdoor_test.features());
}

AccuracyTracker::Accuracies AccuracyTracker::measure(
    std::span<const float> params) {
  const MultiEvalModel test_model{params, test_preds_};
  test_engine_.predict_many({&test_model, 1});
  const MultiEvalModel backdoor_model{params, backdoor_preds_};
  backdoor_engine_.predict_many({&backdoor_model, 1});
  return {tally_confusion(test_, test_preds_).accuracy(),
          backdoor_hit_rate(backdoor_test_, target_class_, backdoor_preds_)};
}

RepeatedResult run_repeated(const ExperimentConfig& config, std::size_t reps,
                            std::uint64_t base_seed) {
  if (reps == 0) throw std::invalid_argument("run_repeated: reps == 0");
  RepeatedResult out;
  out.runs.resize(reps);
  // Each repetition is an independent iteration on the shared pool;
  // the fork-joins inside each experiment's rounds nest inside it
  // (waiting help-drains, so nesting cannot deadlock).
  ThreadPool::global().parallel_for(reps, [&](std::size_t i) {
    out.runs[i] = run_experiment(config, base_seed + i);
  });
  std::vector<double> fps, fns;
  fps.reserve(reps);
  fns.reserve(reps);
  for (const auto& run : out.runs) {
    fps.push_back(run.rates.fp_rate);
    fns.push_back(run.rates.fn_rate);
  }
  out.fp = mean_std(fps);
  out.fn = mean_std(fns);
  return out;
}

}  // namespace baffle
