#include "attack/model_replacement.hpp"

#include <gtest/gtest.h>

#include "data/synth.hpp"
#include "metrics/confusion.hpp"
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
    // Pre-train the global model so replacement operates on a stable
    // model, matching the attack's intended regime.
    TrainConfig tc;
    tc.epochs = 15;
    tc.batch_size = 64;
    tc.sgd.learning_rate = 0.05f;
    train_sgd(global, task.train.features(), task.train.labels(), tc, rng);
    Rng split_rng(3);
    attacker_clean = task.train.sample(150, split_rng);
  }

  static SynthTask make_task() {
    Rng rng(1);
    SynthTaskConfig cfg = synth_vision10_config();
    cfg.train_per_class = 150;
    return make_synth_task(cfg, rng);
  }

  ModelReplacementConfig attack_config(double boost) const {
    ModelReplacementConfig cfg;
    cfg.task = BackdoorTask{BackdoorKind::kSemantic,
                            task.config.backdoor_source,
                            task.config.backdoor_target};
    cfg.poison_fraction = 0.3;
    cfg.boost = boost;
    cfg.train.epochs = 8;
    cfg.train.sgd.learning_rate = 0.05f;
    return cfg;
  }
};

TEST(ModelReplacement, BoostedUpdateImplantsBackdoor) {
  Fixture f;
  Rng rng(4);
  // Boost 1 here because we apply the update directly (no aggregation).
  const ParamVec update = craft_replacement_update(
      f.global, f.attacker_clean, f.task.backdoor_train, f.attack_config(1.0),
      rng);
  Mlp poisoned = f.global;
  poisoned.add_to_parameters(update);
  EXPECT_GT(backdoor_accuracy(poisoned, f.task.backdoor_test,
                              f.task.config.backdoor_target),
            0.6);
  // Main task should survive reasonably (multi-task blend).
  EXPECT_GT(evaluate_confusion(poisoned, f.task.test).accuracy(), 0.6);
}

TEST(ModelReplacement, CleanGlobalModelHasNoBackdoor) {
  Fixture f;
  EXPECT_LT(backdoor_accuracy(f.global, f.task.backdoor_test,
                              f.task.config.backdoor_target),
            0.3);
}

TEST(ModelReplacement, BoostScalesUpdateLinearly) {
  Fixture f;
  Rng rng1(5), rng2(5);
  const ParamVec u1 = craft_replacement_update(
      f.global, f.attacker_clean, f.task.backdoor_train, f.attack_config(1.0),
      rng1);
  const ParamVec u2 = craft_replacement_update(
      f.global, f.attacker_clean, f.task.backdoor_train, f.attack_config(3.0),
      rng2);
  for (std::size_t i = 0; i < u1.size(); ++i) {
    EXPECT_NEAR(u2[i], 3.0f * u1[i], 1e-3f + std::abs(u1[i]) * 1e-3f);
  }
}

TEST(ModelReplacement, RejectsBadScaling) {
  Fixture f;
  Rng rng(6);
  auto cfg = f.attack_config(0.0);
  EXPECT_THROW(craft_replacement_update(f.global, f.attacker_clean,
                                        f.task.backdoor_train, cfg, rng),
               std::invalid_argument);
}

TEST(MaliciousProvider, HonestWhenDisarmed) {
  Fixture f;
  std::vector<FlClient> clients;
  clients.emplace_back(0, f.attacker_clean);
  HonestUpdateProvider honest(&clients, TrainConfig{});
  MaliciousUpdateProvider malicious(honest, 0, f.attacker_clean,
                                    f.task.backdoor_train,
                                    f.attack_config(10.0));
  Rng rng_a(7), rng_b(7);
  const ParamVec from_malicious = malicious.update_for(0, f.global, rng_a);
  const ParamVec from_honest = honest.update_for(0, f.global, rng_b);
  EXPECT_EQ(from_malicious, from_honest);
}

TEST(MaliciousProvider, PoisonsOnlyAttackerIdWhenArmed) {
  Fixture f;
  std::vector<FlClient> clients;
  clients.emplace_back(0, f.attacker_clean);
  clients.emplace_back(1, f.attacker_clean);
  HonestUpdateProvider honest(&clients, TrainConfig{});
  MaliciousUpdateProvider malicious(honest, 0, f.attacker_clean,
                                    f.task.backdoor_train,
                                    f.attack_config(10.0));
  malicious.arm(true);
  Rng rng(8);
  const ParamVec attacker_update = malicious.update_for(0, f.global, rng);
  const ParamVec other_update = malicious.update_for(1, f.global, rng);
  // The boosted poisoned update is far larger than an honest one.
  EXPECT_GT(l2_norm(attacker_update), 3.0f * l2_norm(other_update));
}

}  // namespace
}  // namespace baffle
