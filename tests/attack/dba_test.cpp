#include "attack/dba.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "attack/backdoor.hpp"
#include "metrics/confusion.hpp"
#include "nn/train.hpp"
#include "tensor/ops.hpp"

namespace baffle {
namespace {

TEST(SplitTrigger, PartsSumToWhole) {
  const std::vector<float> pattern{2.0f, 0.0f, 2.0f, 2.0f, 0.0f, 2.0f};
  const auto parts = split_trigger(pattern, 2);
  ASSERT_EQ(parts.size(), 2u);
  std::vector<float> total(pattern.size(), 0.0f);
  for (const auto& p : parts) axpy(1.0f, p, total);
  EXPECT_EQ(total, pattern);
}

TEST(SplitTrigger, DisjointSupport) {
  const std::vector<float> pattern{1.0f, 1.0f, 1.0f, 1.0f};
  const auto parts = split_trigger(pattern, 2);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    int owners = 0;
    for (const auto& p : parts) {
      if (p[i] != 0.0f) ++owners;
    }
    EXPECT_EQ(owners, 1);
  }
}

TEST(SplitTrigger, MorePartsThanCoordinates) {
  const std::vector<float> pattern{1.0f, 0.0f};
  const auto parts = split_trigger(pattern, 4);
  ASSERT_EQ(parts.size(), 4u);
  // Only one non-zero coordinate: exactly one part carries it.
  int carriers = 0;
  for (const auto& p : parts) {
    if (p[0] != 0.0f) ++carriers;
  }
  EXPECT_EQ(carriers, 1);
}

TEST(SplitTrigger, ZeroPartsThrows) {
  EXPECT_THROW(split_trigger({1.0f}, 0), std::invalid_argument);
}

struct DbaFixture {
  SynthTask task;
  Mlp global;

  DbaFixture()
      : task(make_task()),
        global(MlpConfig{{task.config.dim, 32, task.config.num_classes}}) {
    Rng rng(3);
    global.init(rng);
    TrainConfig tc;
    tc.epochs = 12;
    tc.batch_size = 64;
    tc.sgd.learning_rate = 0.05f;
    train_sgd(global, task.train.features(), task.train.labels(), tc, rng);
  }

  static SynthTask make_task() {
    Rng rng(2);
    SynthTaskConfig cfg = synth_vision10_config();
    cfg.backdoor_kind = BackdoorKind::kTrigger;
    cfg.train_per_class = 200;
    return make_synth_task(cfg, rng);
  }

  DbaConfig config() const {
    DbaConfig cfg;
    cfg.num_parts = 4;
    cfg.target_class = task.config.backdoor_target;
    cfg.poison_fraction = 0.3;
    cfg.per_client_boost = 1.0;
    cfg.train.epochs = 6;
    cfg.train.sgd.learning_rate = 0.05f;
    return cfg;
  }
};

TEST(Dba, CombinedSlicesImplantFullTriggerBackdoor) {
  DbaFixture f;
  Rng rng(4);
  const auto pattern = trigger_pattern(f.task.config);
  const auto parts = split_trigger(pattern, 4);
  // Each colluder contributes its slice model; average their updates
  // (full-replacement regime: the mean of the local models).
  std::vector<ParamVec> updates;
  for (std::size_t i = 0; i < 4; ++i) {
    Rng crng = rng.fork();
    updates.push_back(craft_dba_update(
        f.global, f.task.train.sample(300, crng), parts[i], f.config(),
        crng));
  }
  Mlp poisoned = f.global;
  poisoned.add_to_parameters(mean_update(updates));
  const double bd = backdoor_accuracy(poisoned, f.task.backdoor_test,
                                      f.task.config.backdoor_target);
  EXPECT_GT(bd, 0.5);
  // Main task survives (DBA is designed to be stealthy).
  EXPECT_GT(evaluate_confusion(poisoned, f.task.test).accuracy(), 0.6);
}

TEST(Dba, CleanModelNotTriggered) {
  DbaFixture f;
  EXPECT_LT(backdoor_accuracy(f.global, f.task.backdoor_test,
                              f.task.config.backdoor_target),
            0.3);
}

TEST(Dba, CraftRejectsBadInputs) {
  DbaFixture f;
  Rng rng(5);
  EXPECT_THROW(
      craft_dba_update(f.global, Dataset(f.task.config.dim, 10),
                       trigger_pattern(f.task.config), f.config(), rng),
      std::invalid_argument);
  EXPECT_THROW(craft_dba_update(f.global, f.task.train,
                                std::vector<float>{1.0f}, f.config(), rng),
               std::invalid_argument);
  DbaConfig nan_fraction = f.config();
  nan_fraction.poison_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(
      craft_dba_update(f.global, f.task.train, trigger_pattern(f.task.config),
                       nan_fraction, rng),
      std::invalid_argument);
}

TEST(DbaProvider, ColludersPoisonOthersHonest) {
  DbaFixture f;
  Rng rng(6);
  std::vector<FlClient> clients;
  for (std::size_t i = 0; i < 6; ++i) {
    Rng crng = rng.fork();
    clients.emplace_back(i, f.task.train.sample(150, crng));
  }
  HonestUpdateProvider honest(&clients, TrainConfig{});
  std::vector<Dataset> colluder_data;
  for (std::size_t i = 0; i < 4; ++i) {
    colluder_data.push_back(clients[i].data());
  }
  DbaUpdateProvider provider(honest, {0, 1, 2, 3},
                             std::move(colluder_data),
                             trigger_pattern(f.task.config), f.config());
  provider.arm(true);
  Rng a(7), b(7);
  // Colluder 0 produces a poisoned update (differs from honest).
  const ParamVec poisoned = provider.update_for(0, f.global, a);
  const ParamVec honest_u = honest.update_for(0, f.global, b);
  EXPECT_NE(poisoned, honest_u);
  // Client 5 (not a colluder) stays honest.
  Rng c(8), d(8);
  EXPECT_EQ(provider.update_for(5, f.global, c),
            honest.update_for(5, f.global, d));
}

TEST(DbaProvider, DisarmedIsFullyHonest) {
  DbaFixture f;
  Rng rng(9);
  std::vector<FlClient> clients;
  clients.emplace_back(0, f.task.train.sample(100, rng));
  HonestUpdateProvider honest(&clients, TrainConfig{});
  DbaUpdateProvider provider(
      honest, {0}, {clients[0].data()}, trigger_pattern(f.task.config),
      [] {
        DbaConfig cfg;
        cfg.num_parts = 1;
        return cfg;
      }());
  Rng a(10), b(10);
  EXPECT_EQ(provider.update_for(0, f.global, a),
            honest.update_for(0, f.global, b));
}

TEST(DbaProvider, MismatchedColluderCountThrows) {
  DbaFixture f;
  std::vector<FlClient> clients;
  HonestUpdateProvider honest(&clients, TrainConfig{});
  DbaConfig cfg = f.config();  // num_parts = 4
  EXPECT_THROW(DbaUpdateProvider(honest, {0, 1}, {Dataset(), Dataset()},
                                 trigger_pattern(f.task.config), cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace baffle
