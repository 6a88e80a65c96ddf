#include "core/validate.hpp"

#include "core/feedback_loop.hpp"

#include <gtest/gtest.h>

#include <array>

#include "data/backdoor_data.hpp"
#include "data/synth.hpp"
#include "nn/train.hpp"

namespace baffle {
namespace {

TEST(ValidateParams, KIsCeilHalfLookback) {
  EXPECT_EQ(lof_k_for_lookback(20), 10u);
  EXPECT_EQ(lof_k_for_lookback(21), 11u);
  EXPECT_EQ(lof_k_for_lookback(10), 5u);
  EXPECT_EQ(lof_k_for_lookback(3), 2u);
}

TEST(ValidateParams, TauWindowIsFloorQuarterLookback) {
  EXPECT_EQ(tau_window_for_lookback(20), 5u);
  EXPECT_EQ(tau_window_for_lookback(10), 2u);
  EXPECT_EQ(tau_window_for_lookback(30), 7u);
  EXPECT_EQ(tau_window_for_lookback(3), 0u);
}

/// Shared slow fixture: a task, a history of gradually-improving models
/// (one snapshot per training slice), and a validator dataset.
class ValidatorFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(42);
    SynthTaskConfig cfg = synth_vision10_config();
    cfg.train_per_class = 150;
    cfg.test_per_class = 40;
    task_ = new SynthTask(make_synth_task(cfg, rng));
    arch_ = new MlpConfig{
        {cfg.dim, 32, cfg.num_classes}};

    Mlp model(*arch_);
    model.init(rng);
    // Warm start so the history covers the "stable" regime.
    TrainConfig warm;
    warm.epochs = 12;
    warm.batch_size = 64;
    warm.sgd.learning_rate = 0.05f;
    train_sgd(model, task_->train.features(), task_->train.labels(), warm,
              rng);

    history_ = new ModelWindow;
    history_->push_back(std::make_shared<const GlobalModel>(
        GlobalModel{0, model.parameters()}));
    TrainConfig slice;
    slice.epochs = 1;
    slice.batch_size = 64;
    slice.sgd.learning_rate = 0.01f;  // small steps: stable history
    for (std::uint64_t v = 1; v <= 20; ++v) {
      train_sgd(model, task_->train.features(), task_->train.labels(),
                slice, rng);
      history_->push_back(std::make_shared<const GlobalModel>(
          GlobalModel{v, model.parameters()}));
    }
    final_model_ = new Mlp(model);
  }

  static void TearDownTestSuite() {
    delete task_;
    delete arch_;
    delete history_;
    delete final_model_;
  }

  /// A genuine next model: one more small training slice.
  ParamVec genuine_next() const {
    Mlp model = *final_model_;
    Rng rng(7);
    TrainConfig slice;
    slice.epochs = 1;
    slice.batch_size = 64;
    slice.sgd.learning_rate = 0.01f;
    train_sgd(model, task_->train.features(), task_->train.labels(), slice,
              rng);
    return model.parameters();
  }

  /// A backdoored next model: trained on a poisoned blend (model
  /// replacement's local model, i.e. the post-replacement global model).
  ParamVec poisoned_next() const {
    Mlp model = *final_model_;
    Rng rng(8);
    const BackdoorTask bd{BackdoorKind::kSemantic,
                          task_->config.backdoor_source,
                          task_->config.backdoor_target};
    const Dataset blend = make_poisoned_training_set(
        task_->train.sample(300, rng), task_->backdoor_train, bd, 0.3, rng);
    TrainConfig tc;
    tc.epochs = 6;
    tc.batch_size = 32;
    tc.sgd.learning_rate = 0.05f;
    train_sgd(model, blend.features(), blend.labels(), tc, rng);
    return model.parameters();
  }

  Validator make_validator(std::size_t data_size = 200,
                           std::size_t lookback = 20) const {
    Rng rng(9);
    ValidatorConfig cfg;
    cfg.lookback = lookback;
    return Validator(task_->test.sample(data_size, rng), *arch_, cfg);
  }

  static SynthTask* task_;
  static MlpConfig* arch_;
  static ModelWindow* history_;
  static Mlp* final_model_;
};

SynthTask* ValidatorFixture::task_ = nullptr;
MlpConfig* ValidatorFixture::arch_ = nullptr;
ModelWindow* ValidatorFixture::history_ = nullptr;
Mlp* ValidatorFixture::final_model_ = nullptr;

TEST_F(ValidatorFixture, AcceptsGenuineUpdate) {
  Validator v = make_validator();
  const auto outcome = v.validate(genuine_next(), *history_);
  EXPECT_FALSE(outcome.abstained);
  EXPECT_EQ(outcome.vote, 0);
}

TEST_F(ValidatorFixture, RejectsPoisonedUpdate) {
  Validator v = make_validator();
  const auto outcome = v.validate(poisoned_next(), *history_);
  EXPECT_FALSE(outcome.abstained);
  EXPECT_EQ(outcome.vote, 1);
  EXPECT_GT(outcome.phi, outcome.tau);
}

TEST_F(ValidatorFixture, PoisonedScoresFarAboveGenuine) {
  Validator v1 = make_validator();
  Validator v2 = make_validator();
  const auto good = v1.validate(genuine_next(), *history_);
  const auto bad = v2.validate(poisoned_next(), *history_);
  EXPECT_GT(bad.phi, 2.0 * good.phi);
}

TEST_F(ValidatorFixture, AbstainsOnShortHistory) {
  Validator v = make_validator();
  const ModelWindow short_history(history_->begin(), history_->begin() + 3);
  const auto outcome = v.validate(genuine_next(), short_history);
  EXPECT_TRUE(outcome.abstained);
  EXPECT_EQ(outcome.vote, 0);
}

TEST_F(ValidatorFixture, AbstainsOnEmptyAndSingletonHistory) {
  Validator v = make_validator();
  EXPECT_TRUE(
      v.validate(genuine_next(), ModelWindow{}).abstained);
  const ModelWindow one(history_->begin(), history_->begin() + 1);
  EXPECT_TRUE(v.validate(genuine_next(), one).abstained);
}

TEST_F(ValidatorFixture, CachesHistoryEvaluations) {
  Validator v = make_validator();
  v.validate(genuine_next(), *history_);
  const auto misses_first = v.counts().cache_misses;
  v.validate(genuine_next(), *history_);
  // Second validation over the same history: everything cached.
  EXPECT_EQ(v.counts().cache_misses, misses_first);
  EXPECT_GT(v.counts().cache_hits, 0u);
}

TEST_F(ValidatorFixture, IdenticalCandidateToLatestIsNotFlagged) {
  // Candidate == last accepted model -> variation point at the origin,
  // which sits inside the benign cluster of small variations.
  Validator v = make_validator();
  const auto outcome =
      v.validate(history_->back()->params, *history_);
  EXPECT_EQ(outcome.vote, 0);
}

TEST_F(ValidatorFixture, SmallerValidationSetsStillDetect) {
  // The paper stresses that client validation sets are small; detection
  // should survive down to a few dozen samples.
  Validator v = make_validator(/*data_size=*/50);
  const auto outcome = v.validate(poisoned_next(), *history_);
  EXPECT_EQ(outcome.vote, 1);
}

TEST_F(ValidatorFixture, WorksAcrossLookbackSizes) {
  for (std::size_t ell : {10u, 15u, 20u}) {
    Validator good = make_validator(200, ell);
    Validator bad = make_validator(200, ell);
    const ModelWindow window(
        history_->end() - static_cast<std::ptrdiff_t>(ell + 1),
        history_->end());
    EXPECT_EQ(good.validate(genuine_next(), window).vote, 0)
        << "lookback " << ell;
    EXPECT_EQ(bad.validate(poisoned_next(), window).vote, 1)
        << "lookback " << ell;
  }
}

TEST_F(ValidatorFixture, VariationNormZScoreAblationDetects) {
  Rng rng(9);
  ValidatorConfig cfg;
  cfg.lookback = 20;
  cfg.method = ValidationMethod::kVariationNormZScore;
  Validator v(task_->test.sample(200, rng), *arch_, cfg);
  EXPECT_EQ(v.validate(poisoned_next(), *history_).vote, 1);
  Validator v2(task_->test.sample(200, rng), *arch_, cfg);
  EXPECT_EQ(v2.validate(genuine_next(), *history_).vote, 0);
}

TEST_F(ValidatorFixture, GlobalAccuracyAblationRunsAndAbstainsCorrectly) {
  Rng rng(10);
  ValidatorConfig cfg;
  cfg.lookback = 20;
  cfg.method = ValidationMethod::kGlobalAccuracyZScore;
  Validator v(task_->test.sample(200, rng), *arch_, cfg);
  const auto good = v.validate(genuine_next(), *history_);
  EXPECT_EQ(good.vote, 0);
  // Short history still abstains regardless of method.
  Validator v2(task_->test.sample(200, rng), *arch_, cfg);
  const ModelWindow short_history(history_->begin(), history_->begin() + 2);
  EXPECT_TRUE(v2.validate(genuine_next(), short_history).abstained);
}

TEST_F(ValidatorFixture, TauMarginMonotone) {
  // Raising the margin can only flip votes from reject to accept.
  Rng rng(11);
  const ParamVec poisoned = poisoned_next();
  int prev_vote = 1;
  for (double margin : {0.5, 1.0, 1.3, 3.0, 50.0, 1e6}) {
    ValidatorConfig cfg;
    cfg.lookback = 20;
    cfg.tau_margin = margin;
    Validator v(task_->test.sample(200, rng), *arch_, cfg);
    const int vote = v.validate(poisoned, *history_).vote;
    EXPECT_LE(vote, prev_vote) << "margin " << margin;
    prev_vote = vote;
  }
  // An absurd margin accepts anything; a sub-1 margin rejects the
  // poisoned candidate for sure.
  EXPECT_EQ(prev_vote, 0);
}

TEST_F(ValidatorFixture, DefaultServerMarginStricterThanInfinity) {
  // Sanity on the FeedbackConfig helper: the server validator inherits
  // everything but the margin.
  FeedbackConfig cfg;
  cfg.validator.lookback = 17;
  cfg.server_tau_margin = 2.5;
  const ValidatorConfig server_cfg = cfg.server_validator();
  EXPECT_EQ(server_cfg.lookback, 17u);
  EXPECT_DOUBLE_EQ(server_cfg.tau_margin, 2.5);
}

TEST(ValidationMethodName, AllNamed) {
  EXPECT_STREQ(validation_method_name(ValidationMethod::kErrorVariationLof),
               "error-variation+LOF");
  EXPECT_STREQ(
      validation_method_name(ValidationMethod::kGlobalAccuracyZScore),
      "global-accuracy");
  EXPECT_STREQ(
      validation_method_name(ValidationMethod::kVariationNormZScore),
      "variation+zscore");
}

TEST(Validator, RejectsEmptyData) {
  const MlpConfig arch{{4, 2}};
  EXPECT_THROW(Validator(Dataset(4, 2), arch, ValidatorConfig{}),
               std::invalid_argument);
}

TEST(Validator, RejectsTinyLookback) {
  const MlpConfig arch{{4, 2}};
  Dataset d(4, 2);
  d.add(std::array{0.0f, 0.0f, 0.0f, 0.0f}, 0);
  ValidatorConfig cfg;
  cfg.lookback = 1;
  EXPECT_THROW(Validator(d, arch, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace baffle
