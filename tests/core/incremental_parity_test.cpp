// Property-style parity of the incremental validation engine
// (DESIGN.md §12): a validator with cross-round state (candidate-profile
// promotion, per-pair variation points, incremental distance matrix,
// one held record of its last window) must produce bit-identical
// votes/φ/τ to Algorithm 2 recomputed from scratch through arbitrary
// accept/reject/rollback sequences — while doing strictly fewer model
// evaluations. The from-scratch oracle lives here, in the test: it
// shares no state or cache with the Validator, and it evaluates models
// through the inference oracle (tests/support/predict_oracle.hpp), not
// the Validator's engine.

#include "core/validate.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>

#include "data/synth.hpp"
#include "metrics/confusion.hpp"
#include "support/predict_oracle.hpp"
#include "util/contracts.hpp"
#include "util/metric_names.hpp"
#include "util/metrics.hpp"
#include "util/stats.hpp"

namespace baffle {
namespace {

/// v(f, f', D) straight from two confusion matrices (Eq. 2–3).
VariationPoint variation_from(const ConfusionMatrix& older,
                              const ConfusionMatrix& newer) {
  const auto src_old = older.source_focused_errors();
  const auto src_new = newer.source_focused_errors();
  const auto tgt_old = older.target_focused_errors();
  const auto tgt_new = newer.target_focused_errors();
  VariationPoint v;
  for (std::size_t y = 0; y < older.num_classes(); ++y) {
    v.push_back(src_old[y] - src_new[y]);
  }
  for (std::size_t y = 0; y < older.num_classes(); ++y) {
    v.push_back(tgt_old[y] - tgt_new[y]);
  }
  return v;
}

double guarded_zscore(double value, std::span<const double> history_values) {
  const double s = stddev(history_values);
  const double spread = std::isfinite(s) ? std::max(s, 1e-4) : 1e-4;
  return (value - mean(history_values)) / spread;
}

/// Algorithm 2 from scratch: evaluate every history model and the
/// candidate, build the variation list, then score it — τ as the mean
/// leave-one-out LOF of the last ⌊ℓ/4⌋ points and φ as the candidate's
/// LOF against all ℓ, or the z-score ablations over the same list.
/// `evaluations` counts the forward passes over the history.
ValidationOutcome fresh_validate(const ValidatorConfig& cfg,
                                 const Dataset& data, const MlpConfig& arch,
                                 const ParamVec& candidate,
                                 const ModelWindow& history,
                                 std::size_t& evaluations) {
  ValidationOutcome outcome;
  if (history.size() < 2 || history.size() - 1 < cfg.min_variations) {
    outcome.abstained = true;
    return outcome;
  }
  Mlp model(arch);
  std::vector<ConfusionMatrix> cms;
  for (const auto& g : history) {
    model.set_parameters(g->params);
    cms.push_back(oracle_confusion(model, data));
    ++evaluations;
  }
  model.set_parameters(candidate);
  const ConfusionMatrix candidate_cm = oracle_confusion(model, data);

  std::vector<VariationPoint> variations;
  for (std::size_t i = 1; i < cms.size(); ++i) {
    variations.push_back(variation_from(cms[i - 1], cms[i]));
  }
  const VariationPoint candidate_point =
      variation_from(cms.back(), candidate_cm);
  const std::size_t ell = variations.size();

  if (cfg.method == ValidationMethod::kGlobalAccuracyZScore) {
    std::vector<double> deltas;
    for (std::size_t i = 1; i < cms.size(); ++i) {
      deltas.push_back(cms[i].accuracy() - cms[i - 1].accuracy());
    }
    outcome.phi = -guarded_zscore(
        candidate_cm.accuracy() - cms.back().accuracy(), deltas);
    outcome.tau = cfg.zscore_threshold;
    outcome.vote = outcome.phi > outcome.tau ? 1 : 0;
    return outcome;
  }
  if (cfg.method == ValidationMethod::kVariationNormZScore) {
    const VariationPoint origin(candidate_point.size(), 0.0);
    std::vector<double> norms;
    for (const auto& v : variations) {
      norms.push_back(variation_distance(v, origin));
    }
    outcome.phi =
        guarded_zscore(variation_distance(candidate_point, origin), norms);
    outcome.tau = cfg.zscore_threshold;
    outcome.vote = outcome.phi > outcome.tau ? 1 : 0;
    return outcome;
  }

  const std::size_t k = lof_k_for_lookback(ell);
  const std::size_t tau_window =
      std::max<std::size_t>(1, tau_window_for_lookback(ell));
  double tau_sum = 0.0;
  std::size_t tau_count = 0;
  for (std::size_t i = ell - tau_window; i < ell; ++i) {
    std::vector<VariationPoint> rest;
    for (std::size_t j = 0; j < ell; ++j) {
      if (j != i) rest.push_back(variations[j]);
    }
    if (rest.size() < 2) continue;
    tau_sum += lof_score(variations[i], rest, k);
    ++tau_count;
  }
  if (tau_count == 0) {
    outcome.abstained = true;
    return outcome;
  }
  outcome.tau = tau_sum / static_cast<double>(tau_count);
  outcome.phi = lof_score(candidate_point, variations, k);
  outcome.vote = outcome.phi > cfg.tau_margin * outcome.tau ? 1 : 0;
  return outcome;
}

/// Cheap non-degenerate model chain: random-walk parameter vectors.
/// Parity does not need trained models, only distinct profiles per
/// version.
class ParityFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(404);
    SynthTaskConfig cfg = synth_vision10_config();
    cfg.train_per_class = 25;
    cfg.test_per_class = 20;  // 200 samples; validators draw 120 below
    task_ = make_synth_task(cfg, rng);
    arch_ = MlpConfig{{cfg.dim, 16, cfg.num_classes}};
    Mlp model(arch_);
    model.init(rng);
    params_ = model.parameters();
  }

  /// Next model on the random walk (a fresh "candidate").
  ParamVec next_params(Rng& rng, float step = 0.05f) {
    ParamVec out = params_;
    for (float& p : out) p += static_cast<float>(rng.normal(0.0, step));
    return out;
  }

  static ValidatorConfig config(
      std::size_t lookback = 8, std::size_t min_variations = 4,
      ValidationMethod method = ValidationMethod::kErrorVariationLof) {
    ValidatorConfig cfg;
    cfg.lookback = lookback;
    cfg.min_variations = min_variations;
    cfg.method = method;
    return cfg;
  }

  /// The validator's private data: the same 120-sample draw every time.
  Dataset validator_data() const {
    Rng rng(9);
    return task_.test.sample(120, rng);
  }

  Validator make_validator(const ValidatorConfig& cfg) const {
    return Validator(validator_data(), arch_, cfg);
  }

  /// Scores `candidate` with `v` and with the from-scratch oracle and
  /// expects the same bits; returns the validator's outcome.
  ValidationOutcome expect_parity(Validator& v, const ParamVec& candidate,
                                  const ModelWindow& history) {
    const ValidationOutcome got = v.validate(candidate, history);
    const ValidationOutcome want =
        fresh_validate(v.config(), validator_data(), arch_, candidate,
                       history, oracle_evaluations_);
    EXPECT_EQ(got.vote, want.vote);
    EXPECT_EQ(got.phi, want.phi);  // bit-exact, not just approximately equal
    EXPECT_EQ(got.tau, want.tau);
    EXPECT_EQ(got.abstained, want.abstained);
    return got;
  }

  /// Checks run_script makes right before and right after each
  /// validation, given the window scored.
  struct Hooks {
    std::function<void(const ModelWindow&)> before;
    std::function<void(const ModelWindow&)> after;
  };

  /// Drives `v` through scripted rounds against the oracle: validate
  /// on every `stride`-th round (on the others the chain moves without
  /// asking `v`, as for a client not sampled that round), then commit
  /// (true) or roll back (false). Returns how many rounds were scored
  /// rather than abstained.
  std::size_t run_script(Validator& v, const std::vector<bool>& accept_script,
                         std::size_t lookback, std::uint64_t seed,
                         std::size_t stride = 1, const Hooks& hooks = {}) {
    ModelHistory window(lookback + 1);
    std::uint64_t version = 0;
    window.push(version, params_);
    Rng rng(seed);
    std::size_t non_abstained = 0;
    for (std::size_t round = 0; round < accept_script.size(); ++round) {
      const bool accept = accept_script[round];
      const ModelWindow history = window.window_shared(lookback + 1);
      const ParamVec candidate = next_params(rng);
      if ((round + 1) % stride == 0) {
        if (hooks.before) hooks.before(history);
        if (!expect_parity(v, candidate, history).abstained) ++non_abstained;
        if (hooks.after) hooks.after(history);
      }
      if (accept) {
        ++version;
        window.push(version, candidate);
        v.notify_commit(version, candidate);
        params_ = candidate;
      } else {
        // Rolled back: the window must behave as if the candidate never
        // existed (its pending evaluation is discarded).
        v.notify_reject();
      }
    }
    return non_abstained;
  }

  SynthTask task_;
  MlpConfig arch_;
  ParamVec params_;  // current committed chain head
  std::size_t oracle_evaluations_ = 0;
};

// Warmup accepts (through the abstention regime), then rejects —
// including consecutive ones — interleaved with accepts so the window
// both shifts and stalls.
const std::vector<bool> kAcceptScript = {
    true, true,  true, true,  true, true, true, false, true,
    false, false, true, true, false, true, true, true,  true};

TEST_F(ParityFixture, AcceptRejectRollbackSequenceBitIdentical) {
  const std::size_t lookback = 8;
  Validator v = make_validator(config(lookback));
  const std::size_t non_abstained =
      run_script(v, kAcceptScript, lookback, /*seed=*/77);
  ASSERT_GT(non_abstained, 6u);  // the LOF path actually ran

  // The validator promoted committed candidates instead of re-evaluating
  // them as next round's history.back().
  EXPECT_GT(v.counts().candidate_reuse, 0u);
  EXPECT_LT(v.counts().cache_misses, oracle_evaluations_);
}

TEST_F(ParityFixture, StridedValidationWindowsBitIdentical) {
  // A client validates only when it is sampled (about one vision round
  // in five; a FEMNIST client far more rarely), so between two of its
  // validations the window moves by several models, or by all of them.
  // Strides up to ℓ+3, with a rejected round every 7th, must keep the
  // incremental window exact across every such jump.
  const std::size_t lookback = 8;
  std::vector<bool> script(8 * (lookback + 3));
  for (std::size_t i = 0; i < script.size(); ++i) script[i] = i % 7 != 6;
  const std::size_t strides[] = {2, 3, 5, lookback, lookback + 1,
                                 lookback + 3};
  for (const std::size_t stride : strides) {
    SCOPED_TRACE(stride);
    const ParamVec start = params_;
    Validator v = make_validator(config(lookback));
    const std::size_t non_abstained =
        run_script(v, script, lookback, /*seed=*/200 + stride, stride);
    EXPECT_GE(non_abstained, 6u);  // the LOF path ran after each jump
    params_ = start;
  }

  // On a chain that commits every round, a warm validator that scores
  // every third round evaluates exactly the two models committed while
  // it sat out. The third new model is its own promoted candidate: not
  // the window's newest, and never evaluated again.
  Validator v = make_validator(config(lookback));
  ValidatorCounts before;
  std::size_t warm = 0;
  Hooks hooks;
  hooks.before = [&](const ModelWindow& history) {
    before = v.counts();
    if (before.candidate_reuse == 0) return;  // nothing promoted yet
    const std::uint64_t newest = history.back()->version;
    EXPECT_NE(v.held_profile(newest - 2), nullptr);
    EXPECT_EQ(v.held_profile(newest - 1), nullptr);
    EXPECT_EQ(v.held_profile(newest), nullptr);
  };
  hooks.after = [&](const ModelWindow&) {
    if (before.candidate_reuse == 0) return;
    EXPECT_EQ(v.counts().cache_misses - before.cache_misses, 2u);
    ++warm;
  };
  run_script(v, std::vector<bool>(6 * lookback, true), lookback,
             /*seed=*/300, /*stride=*/3, hooks);
  EXPECT_EQ(warm, 14u);  // every validation from round 8 on
}

TEST_F(ParityFixture, ZScoreAblationsMatchFreshRecompute) {
  // The ablations score off the same window state as LOF: A2 reads the
  // held variation points, A1 the held profiles' accuracies.
  const std::size_t lookback = 8;
  for (ValidationMethod method : {ValidationMethod::kGlobalAccuracyZScore,
                                  ValidationMethod::kVariationNormZScore}) {
    SCOPED_TRACE(validation_method_name(method));
    const ParamVec start = params_;
    oracle_evaluations_ = 0;
    Validator v = make_validator(config(lookback, 4, method));
    const std::size_t non_abstained =
        run_script(v, kAcceptScript, lookback, /*seed=*/78);
    ASSERT_GT(non_abstained, 6u);
    EXPECT_GT(v.counts().candidate_reuse, 0u);
    EXPECT_LT(v.counts().cache_misses, oracle_evaluations_);
    params_ = start;
  }
}

TEST_F(ParityFixture, RepeatedValidationsSameRoundBitIdentical) {
  // The adaptive attacker's self-check validates many candidates per
  // round against the same window; only the last one may be promoted.
  const std::size_t lookback = 8;
  Validator v = make_validator(config(lookback));

  // The window holds at most ℓ+1 models, so each push drops the oldest.
  ModelHistory window(lookback + 1);
  Rng rng(55);
  for (std::uint64_t ver = 0; ver <= lookback; ++ver) {
    window.push(ver, params_);
    params_ = next_params(rng);
  }
  ModelWindow history = window.window_shared(lookback + 1);
  ParamVec last;
  for (int trial = 0; trial < 5; ++trial) {
    last = next_params(rng, 0.01f * static_cast<float>(trial + 1));
    expect_parity(v, last, history);
  }
  // A bit-identical repeat scores the same (and is evaluated again).
  expect_parity(v, last, history);

  // Committing a model that is NOT the last validated candidate must
  // not promote (parameters differ bit-wise from the pending ones).
  const ParamVec other = next_params(rng);
  v.notify_commit(9, other);
  EXPECT_EQ(v.counts().candidate_reuse, 0u);

  window.push(9, other);
  history = window.window_shared(lookback + 1);
  expect_parity(v, last, history);

  // Committing exactly the last validated candidate does promote.
  v.notify_commit(10, last);
  EXPECT_EQ(v.counts().candidate_reuse, 1u);
  window.push(10, last);
  history = window.window_shared(lookback + 1);
  const ParamVec candidate = next_params(rng);
  const auto misses_before = v.counts().cache_misses;
  expect_parity(v, candidate, history);
  // The promoted version was needed as history.back() and hit.
  EXPECT_EQ(v.counts().cache_misses, misses_before);
}

TEST_F(ParityFixture, OverlongWindowThrowsContractViolation) {
  // validate() takes at most ℓ+1 models; a longer window is a caller
  // bug, rejected in every build rather than scored on the wrong ℓ.
  const std::size_t lookback = 8;
  Validator v = make_validator(config(lookback));
  ModelWindow history;
  Rng rng(56);
  for (std::uint64_t ver = 0; ver <= lookback + 1; ++ver) {
    history.push_back(
        std::make_shared<const GlobalModel>(GlobalModel{ver, params_}));
    params_ = next_params(rng);
  }
  EXPECT_THROW(v.validate(next_params(rng), history), ContractViolation);
  history.erase(history.begin());
  EXPECT_FALSE(v.validate(next_params(rng), history).abstained);
}

TEST_F(ParityFixture, ZScoreAblationsSingleDeltaStayFinite) {
  // Regression: a 2-model history yields one delta; the z-score's
  // sample stddev path must not poison φ with NaN for either ablation.
  Rng rng(66);
  for (ValidationMethod method : {ValidationMethod::kGlobalAccuracyZScore,
                                  ValidationMethod::kVariationNormZScore}) {
    Validator v = make_validator(config(2, 1, method));
    const ModelWindow history = {
        std::make_shared<const GlobalModel>(GlobalModel{0, params_}),
        std::make_shared<const GlobalModel>(
            GlobalModel{1, next_params(rng)})};
    const auto outcome = v.validate(next_params(rng), history);
    EXPECT_FALSE(outcome.abstained);
    EXPECT_TRUE(std::isfinite(outcome.phi))
        << validation_method_name(method);
    EXPECT_EQ(outcome.vote, outcome.phi > outcome.tau ? 1 : 0);
  }
}

TEST_F(ParityFixture, LookbackSweepSizesBitIdentical) {
  // table1_lookback sizes: the incremental window must stay exact
  // through growth, saturation and rotation at every ℓ.
  for (std::size_t ell : {4u, 8u, 16u}) {
    SCOPED_TRACE(ell);
    Validator v = make_validator(config(ell));
    run_script(v, std::vector<bool>(ell + 6, true), ell, 100 + ell);
  }
}

TEST_F(ParityFixture, RegistryCounterDeltasEqualValidatorTallies) {
  // e2ebench's core.cache_* ledger and baffle_sim's summary read these
  // registry counters; after every validate() and every commit/reject
  // they must equal what the validators tallied themselves. One
  // validator scores every round (the server), the other every third
  // (a sampled client), through accepts and rejects.
  const std::size_t lookback = 8;
  const ValidatorConfig cfg = config(lookback);
  Validator every = make_validator(cfg);
  Validator third = make_validator(cfg);
  const char* const names[] = {
      metric::kCacheHits,    metric::kCacheMisses,
      metric::kCachePromotions, metric::kValidations,
      metric::kModelMaterializations, metric::kCandidateReuse};
  const MetricsRegistry& registry = MetricsRegistry::global();
  std::vector<std::uint64_t> before;
  for (const char* name : names) before.push_back(registry.counter(name));

  std::uint64_t validations = 0;
  std::uint64_t candidate_evals = 0;
  const auto expect_deltas = [&] {
    const ValidatorCounts a = every.counts(), b = third.counts();
    const std::uint64_t promotions = a.candidate_reuse + b.candidate_reuse;
    const std::uint64_t misses = a.cache_misses + b.cache_misses;
    const std::uint64_t want[] = {
        a.cache_hits + b.cache_hits, misses, promotions,
        validations, misses + candidate_evals, promotions};
    for (std::size_t i = 0; i < std::size(names); ++i) {
      EXPECT_EQ(registry.counter(names[i]) - before[i], want[i]) << names[i];
    }
    // The validators' own validator.* tallies agree with the script.
    EXPECT_EQ(a.validations + b.validations, validations);
    EXPECT_EQ(a.model_materializations + b.model_materializations,
              misses + candidate_evals);
  };

  ModelHistory window(lookback + 1);
  std::uint64_t version = 0;
  window.push(version, params_);
  Rng rng(81);
  std::vector<bool> script = kAcceptScript;
  script.insert(script.end(), kAcceptScript.begin(), kAcceptScript.end());
  for (std::size_t round = 0; round < script.size(); ++round) {
    SCOPED_TRACE(round);
    const ModelWindow history = window.window_shared(lookback + 1);
    const ParamVec candidate = next_params(rng);
    // The candidate is evaluated exactly when the round can be scored.
    const bool scored =
        history.size() >= 2 && history.size() - 1 >= cfg.min_variations;
    std::vector<Validator*> validators{&every};
    if (round % 3 == 2) validators.push_back(&third);
    for (Validator* v : validators) {
      v->validate(candidate, history);
      ++validations;
      if (scored) ++candidate_evals;
      expect_deltas();
    }
    for (Validator* v : {&every, &third}) {
      if (script[round]) {
        v->notify_commit(version + 1, candidate);
      } else {
        v->notify_reject();
      }
      expect_deltas();
    }
    if (script[round]) {
      ++version;
      window.push(version, candidate);
      params_ = candidate;
    }
  }
  EXPECT_GT(every.counts().candidate_reuse, 0u);
  EXPECT_GT(third.counts().candidate_reuse, 0u);
  EXPECT_GT(third.counts().cache_misses, every.counts().cache_misses);
}

/// The prediction_cache.* counters (baffle_sim's cache line, e2ebench's
/// core.cache_* ledger) and the profiles behind them, as a validator
/// keeps them: one per model of the window it scored last, plus the
/// candidate it promoted since.
class PredictionCache : public ParityFixture {
 protected:
  /// Models `first` .. `first + count − 1` of one random-walk chain
  /// whose model i has version i.
  ModelWindow chain(std::size_t first, std::size_t count) {
    while (chain_.size() < first + count) {
      params_ = next_params(rng_);
      chain_.push_back(std::make_shared<const GlobalModel>(
          GlobalModel{chain_.size(), params_}));
    }
    return ModelWindow(chain_.begin() + static_cast<std::ptrdiff_t>(first),
                       chain_.begin() +
                           static_cast<std::ptrdiff_t>(first + count));
  }

  Rng rng_{31};
  ModelWindow chain_;
};

TEST_F(PredictionCache, MissThenHit) {
  // Scoring a window evaluates each model once; scoring it again reads
  // the held profiles (only the newest, for the candidate's point) and
  // evaluates just the new candidate.
  Validator v = make_validator(config());
  const ModelWindow window = chain(0, 9);
  expect_parity(v, next_params(rng_), window);
  const ValidatorCounts cold = v.counts();
  EXPECT_EQ(cold.cache_misses, 9u);
  EXPECT_EQ(cold.cache_hits, 2u * 8 + 1);  // two per point, the newest
  expect_parity(v, next_params(rng_), window);
  const ValidatorCounts warm = v.counts();
  EXPECT_EQ(warm.cache_misses, cold.cache_misses);
  EXPECT_EQ(warm.cache_hits, cold.cache_hits + 1);
  EXPECT_EQ(warm.model_materializations, cold.model_materializations + 1);
}

TEST_F(PredictionCache, DistinctVersionsEvaluatedSeparately) {
  // A version names a model: the same parameters committed under two
  // versions are two window models, each evaluated and held.
  ModelWindow window = chain(0, 8);
  window.push_back(std::make_shared<const GlobalModel>(
      GlobalModel{8, window.back()->params}));
  Validator v = make_validator(config());
  expect_parity(v, next_params(rng_), window);
  EXPECT_EQ(v.counts().cache_misses, 9u);
  const ErrorProfile* a = v.held_profile(7);
  const ErrorProfile* b = v.held_profile(8);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(a->errors, b->errors);
}

TEST_F(PredictionCache, FindReturnsStoredMatrix) {
  // After the window slid by three models, one of them the promoted
  // candidate, held_profile() returns for each held version the bits of
  // a direct evaluation, and nothing for any other version.
  Validator v = make_validator(config());
  const ParamVec candidate = next_params(rng_);
  expect_parity(v, candidate, chain(0, 9));
  v.notify_commit(9, candidate);
  ModelWindow window = chain(3, 6);
  window.push_back(
      std::make_shared<const GlobalModel>(GlobalModel{9, candidate}));
  for (std::uint64_t version : {10u, 11u}) {
    window.push_back(std::make_shared<const GlobalModel>(
        GlobalModel{version, next_params(rng_)}));
  }
  expect_parity(v, next_params(rng_), window);
  EXPECT_EQ(v.counts().cache_misses, 9u + 2);
  EXPECT_EQ(v.held_profile(2), nullptr);
  EXPECT_EQ(v.held_profile(12), nullptr);
  const Dataset data = validator_data();
  Mlp model(arch_);
  for (const auto& g : window) {
    const ErrorProfile* held = v.held_profile(g->version);
    ASSERT_NE(held, nullptr) << "version " << g->version;
    model.set_parameters(g->params);
    const ConfusionMatrix cm = oracle_confusion(model, data);
    std::vector<double> errors = cm.source_focused_errors();
    const std::vector<double> target = cm.target_focused_errors();
    errors.insert(errors.end(), target.begin(), target.end());
    EXPECT_EQ(held->errors, errors) << "version " << g->version;
    EXPECT_EQ(held->accuracy, cm.accuracy());
  }
}

TEST_F(PredictionCache, PromoteBindsMatrixAndCounts) {
  // Committing the candidate scored last binds its profile to the new
  // version and counts one promotion, which is one candidate reuse; the
  // next window then evaluates only its own candidate.
  Validator v = make_validator(config());
  const ModelWindow window = chain(0, 9);
  const ParamVec candidate = next_params(rng_);
  expect_parity(v, candidate, window);
  const std::uint64_t promotions_before =
      MetricsRegistry::global().counter(metric::kCachePromotions);
  v.notify_commit(9, candidate);
  EXPECT_EQ(v.counts().candidate_reuse, 1u);
  EXPECT_EQ(MetricsRegistry::global().counter(metric::kCachePromotions) -
                promotions_before,
            1u);
  ASSERT_NE(v.held_profile(9), nullptr);
  const ErrorProfile promoted = *v.held_profile(9);

  ModelWindow next(window.begin() + 1, window.end());
  next.push_back(
      std::make_shared<const GlobalModel>(GlobalModel{9, candidate}));
  const ValidatorCounts before = v.counts();
  expect_parity(v, next_params(rng_), next);
  EXPECT_EQ(v.counts().cache_misses, before.cache_misses);
  EXPECT_EQ(v.counts().model_materializations,
            before.model_materializations + 1);
  ASSERT_NE(v.held_profile(9), nullptr);
  EXPECT_EQ(v.held_profile(9)->errors, promoted.errors);
}

TEST_F(PredictionCache, PromotionComparesBytesNotFloats) {
  // A commit promotes the pending candidate only when it holds the
  // candidate's bytes. A zero whose sign flipped is another model,
  // though operator== calls the two equal; a candidate holding a NaN,
  // committed unchanged, is the same model, though operator== calls it
  // unequal to itself.
  const ModelWindow window = chain(0, 9);
  ParamVec zero = next_params(rng_);
  zero[0] = 0.0f;
  ParamVec flipped = zero;
  flipped[0] = -0.0f;
  ParamVec nan = next_params(rng_);
  nan[1] = std::numeric_limits<float>::quiet_NaN();

  Validator v = make_validator(config());
  v.validate(zero, window);
  v.notify_commit(9, flipped);
  EXPECT_EQ(v.counts().candidate_reuse, 0u);
  EXPECT_EQ(v.held_profile(9), nullptr);

  v.validate(nan, window);
  v.notify_commit(9, ParamVec(nan));
  EXPECT_EQ(v.counts().candidate_reuse, 1u);
  EXPECT_NE(v.held_profile(9), nullptr);
}

TEST_F(PredictionCache, EvictBeforeDropsOnlyOlderVersions) {
  // When the window moves on by s models, the validator drops exactly
  // the s oldest profiles and keeps the rest without evaluating them
  // again.
  Validator v = make_validator(config());
  expect_parity(v, next_params(rng_), chain(0, 9));
  expect_parity(v, next_params(rng_), chain(3, 9));
  EXPECT_EQ(v.counts().cache_misses, 9u + 3);
  for (std::uint64_t version = 0; version < 12; ++version) {
    EXPECT_EQ(v.held_profile(version) != nullptr, version >= 3)
        << "version " << version;
  }
}

TEST_F(PredictionCache, EvictedVersionCountsAsMissAgain) {
  // A dropped model is evaluated again when a later window needs it: a
  // window that does not continue the held one is scored from scratch.
  Validator v = make_validator(config());
  expect_parity(v, next_params(rng_), chain(0, 9));
  expect_parity(v, next_params(rng_), chain(4, 9));
  expect_parity(v, next_params(rng_), chain(0, 9));
  EXPECT_EQ(v.counts().cache_misses, 9u + 4 + 9);
}

TEST(ValidatorCacheBound, HoldsOnlyTheWindowOn62Classes) {
  // FEMNIST-sized class set: a validator's cache must hold the window
  // plus at most the promoted candidate — never a growing tail of
  // versions it can no longer read.
  Rng rng(62);
  SynthTaskConfig task_cfg = synth_femnist62_config();
  task_cfg.train_per_class = 1;
  task_cfg.test_per_class = 4;
  const SynthTask task = make_synth_task(task_cfg, rng);
  const MlpConfig arch{{task_cfg.dim, 16, task_cfg.num_classes}};
  Mlp model(arch);
  model.init(rng);
  ParamVec params = model.parameters();

  const std::size_t lookback = 6;
  ValidatorConfig cfg;
  cfg.lookback = lookback;
  cfg.min_variations = 3;
  Validator v(task.test, arch, cfg);

  ModelHistory window(lookback + 1);
  std::uint64_t version = 0;
  window.push(version, params);
  std::size_t commits = 0;
  for (std::size_t round = 0; commits < 3 * (lookback + 1); ++round) {
    SCOPED_TRACE(round);
    const ModelWindow history = window.window_shared(lookback + 1);
    ParamVec candidate = params;
    for (float& p : candidate) p += static_cast<float>(rng.normal(0.0, 0.05));
    v.validate(candidate, history);
    if (round % 3 == 2) {
      v.notify_reject();
    } else {
      ++version;
      ++commits;
      v.notify_commit(version, candidate);
      window.push(version, candidate);
      params = candidate;
    }
    std::size_t held = 0;
    for (std::uint64_t ver = 0; ver <= version; ++ver) {
      if (v.held_profile(ver) == nullptr) continue;
      ++held;
      EXPECT_GE(ver, history.front()->version) << "version " << ver;
    }
    EXPECT_LE(held, lookback + 2);
  }
  EXPECT_GT(version, 3 * lookback);
  EXPECT_GT(v.counts().candidate_reuse, 0u);
}

}  // namespace
}  // namespace baffle
