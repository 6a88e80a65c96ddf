#include "attack/adaptive.hpp"

#include <gtest/gtest.h>

#include "data/synth.hpp"
#include "nn/train.hpp"
#include "tensor/ops.hpp"

namespace baffle {
namespace {

struct Fixture {
  SynthTask task;
  Mlp global;
  Dataset attacker_clean;

  Fixture()
      : task(make_task()),
        global(MlpConfig{{task.config.dim, 32, task.config.num_classes}}) {
    Rng rng(2);
    global.init(rng);
    TrainConfig tc;
    tc.epochs = 10;
    tc.batch_size = 64;
    tc.sgd.learning_rate = 0.05f;
    train_sgd(global, task.train.features(), task.train.labels(), tc, rng);
    Rng split_rng(3);
    attacker_clean = task.train.sample(120, split_rng);
  }

  static SynthTask make_task() {
    Rng rng(1);
    SynthTaskConfig cfg = synth_vision10_config();
    cfg.train_per_class = 120;
    return make_synth_task(cfg, rng);
  }

  AdaptiveAttackConfig config() const {
    AdaptiveAttackConfig cfg;
    cfg.replacement.task =
        BackdoorTask{BackdoorKind::kSemantic, task.config.backdoor_source,
                     task.config.backdoor_target};
    cfg.replacement.poison_fraction = 0.2;
    cfg.replacement.boost = 10.0;
    cfg.replacement.train.epochs = 6;
    cfg.replacement.train.sgd.learning_rate = 0.05f;
    return cfg;
  }
};

TEST(AdaptiveAttack, AcceptAllCheckGivesFullScale) {
  Fixture f;
  Rng rng(4);
  const auto result = craft_adaptive_update(
      f.global, f.attacker_clean, f.task.backdoor_train, f.config(),
      [](const ParamVec&) { return true; }, rng);
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(result->alpha, 1.0);
  EXPECT_TRUE(result->self_passed);
}

TEST(AdaptiveAttack, RejectAllCheckSkipsRound) {
  Fixture f;
  Rng rng(5);
  const auto result = craft_adaptive_update(
      f.global, f.attacker_clean, f.task.backdoor_train, f.config(),
      [](const ParamVec&) { return false; }, rng);
  EXPECT_FALSE(result.has_value());
}

TEST(AdaptiveAttack, ScaleBackFindsLargestPassingAlpha) {
  Fixture f;
  Rng rng(6);
  // Accept only small perturbations: candidates within distance d of G.
  const ParamVec g = f.global.parameters();
  const auto norm_check = [&](const ParamVec& candidate) {
    return l2_distance(candidate, g) < 2.0f;
  };
  const auto full = craft_adaptive_update(
      f.global, f.attacker_clean, f.task.backdoor_train, f.config(),
      [](const ParamVec&) { return true; }, rng);
  ASSERT_TRUE(full.has_value());

  Rng rng2(6);
  const auto constrained = craft_adaptive_update(
      f.global, f.attacker_clean, f.task.backdoor_train, f.config(),
      norm_check, rng2);
  if (constrained.has_value()) {
    EXPECT_LE(constrained->alpha, 1.0);
    // The attacker's predicted candidate at the chosen alpha passes the
    // check: update = boost·alpha·(L−G), so alpha·(L−G) = update/boost.
    ParamVec predicted = g;
    ParamVec step = constrained->update;
    scale(step, static_cast<float>(1.0 / f.config().replacement.boost));
    axpy(1.0f, step, predicted);
    EXPECT_TRUE(norm_check(predicted));
  }
}

TEST(AdaptiveAttack, UpdateScalesWithBoostAndAlpha) {
  Fixture f;
  Rng rng(7);
  const auto result = craft_adaptive_update(
      f.global, f.attacker_clean, f.task.backdoor_train, f.config(),
      [](const ParamVec&) { return true; }, rng);
  ASSERT_TRUE(result.has_value());
  // With alpha = 1 the submitted update is boost * (L - G); its norm must
  // exceed the boost times a typical benign drift.
  EXPECT_GT(l2_norm(result->update), 1.0f);
}

TEST(AdaptiveAttack, ChecksCalledWithDescendingAlpha) {
  Fixture f;
  Rng rng(8);
  std::vector<double> seen_norms;
  const ParamVec g = f.global.parameters();
  craft_adaptive_update(
      f.global, f.attacker_clean, f.task.backdoor_train, f.config(),
      [&](const ParamVec& candidate) {
        seen_norms.push_back(l2_distance(candidate, g));
        return false;
      },
      rng);
  ASSERT_GE(seen_norms.size(), 2u);
  for (std::size_t i = 1; i < seen_norms.size(); ++i) {
    EXPECT_LT(seen_norms[i], seen_norms[i - 1]);
  }
}

TEST(AdaptiveAttack, RequiresSelfCheck) {
  Fixture f;
  Rng rng(9);
  EXPECT_THROW(craft_adaptive_update(f.global, f.attacker_clean,
                                     f.task.backdoor_train, f.config(),
                                     AttackerSideCheck{}, rng),
               std::invalid_argument);
}

TEST(AdaptiveAttack, RejectsBadAlphaGrid) {
  Fixture f;
  Rng rng(10);
  auto cfg = f.config();
  cfg.alpha_step = 0.0;
  EXPECT_THROW(craft_adaptive_update(f.global, f.attacker_clean,
                                     f.task.backdoor_train, cfg,
                                     [](const ParamVec&) { return true; },
                                     rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace baffle
