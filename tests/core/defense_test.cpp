#include "core/defense.hpp"

#include <gtest/gtest.h>

#include "data/synth.hpp"
#include "nn/train.hpp"

namespace baffle {
namespace {

/// Small end-to-end-ish fixture: clients with real shards, a history of
/// gradually improving models, and helpers to produce genuine vs
/// poisoned candidates.
class DefenseFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kLookback = 10;

  static void SetUpTestSuite() {
    Rng rng(11);
    SynthTaskConfig cfg = synth_vision10_config();
    cfg.train_per_class = 120;
    cfg.test_per_class = 40;
    task_ = new SynthTask(make_synth_task(cfg, rng));
    arch_ = new MlpConfig{
        {cfg.dim, 32, cfg.num_classes}};

    clients_ = new std::vector<FlClient>;
    for (std::size_t i = 0; i < 8; ++i) {
      clients_->emplace_back(i, task_->train.sample(100, rng));
    }
    clients_->emplace_back(8, Dataset(cfg.dim, cfg.num_classes));  // empty

    // Model trajectory.
    Mlp model(*arch_);
    model.init(rng);
    TrainConfig warm;
    warm.epochs = 10;
    warm.batch_size = 64;
    warm.sgd.learning_rate = 0.05f;
    train_sgd(model, task_->train.features(), task_->train.labels(), warm,
              rng);
    snapshots_ = new std::vector<ParamVec>;
    snapshots_->push_back(model.parameters());
    TrainConfig slice;
    slice.epochs = 1;
    slice.batch_size = 64;
    slice.sgd.learning_rate = 0.01f;
    for (int i = 0; i < 14; ++i) {
      train_sgd(model, task_->train.features(), task_->train.labels(),
                slice, rng);
      snapshots_->push_back(model.parameters());
    }
    // Poisoned candidate: trained on relabelled backdoor blend.
    Mlp poisoned(*arch_);
    poisoned.set_parameters(snapshots_->back());
    Dataset blend = task_->train.sample(250, rng);
    const Dataset& bd = task_->backdoor_train;
    for (std::size_t i = 0; i < bd.size(); ++i) {
      blend.add(bd.x(i), task_->config.backdoor_target);
    }
    TrainConfig ptc;
    ptc.epochs = 6;
    ptc.batch_size = 32;
    ptc.sgd.learning_rate = 0.05f;
    train_sgd(poisoned, blend.features(), blend.labels(), ptc, rng);
    poisoned_params_ = new ParamVec(poisoned.parameters());

    Mlp genuine(*arch_);
    genuine.set_parameters(snapshots_->back());
    train_sgd(genuine, task_->train.features(), task_->train.labels(),
              slice, rng);
    genuine_params_ = new ParamVec(genuine.parameters());
  }

  static void TearDownTestSuite() {
    delete task_;
    delete arch_;
    delete clients_;
    delete snapshots_;
    delete poisoned_params_;
    delete genuine_params_;
  }

  FeedbackConfig config(DefenseMode mode, std::size_t quorum = 4) const {
    FeedbackConfig cfg;
    cfg.mode = mode;
    cfg.quorum = quorum;
    cfg.validator.lookback = kLookback;
    return cfg;
  }

  BaffleDefense make_defense(DefenseMode mode, std::size_t quorum = 4) const {
    Rng rng(13);
    BaffleDefense defense(*arch_, config(mode, quorum),
                          task_->test.sample(150, rng));
    for (std::size_t i = 0; i < snapshots_->size(); ++i) {
      defense.on_commit(i, (*snapshots_)[i]);
    }
    return defense;
  }

  static std::vector<std::size_t> validator_ids() {
    return {0, 1, 2, 3, 4, 5, 6, 7};
  }

  static SynthTask* task_;
  static MlpConfig* arch_;
  static std::vector<FlClient>* clients_;
  static std::vector<ParamVec>* snapshots_;
  static ParamVec* poisoned_params_;
  static ParamVec* genuine_params_;
};

SynthTask* DefenseFixture::task_ = nullptr;
MlpConfig* DefenseFixture::arch_ = nullptr;
std::vector<FlClient>* DefenseFixture::clients_ = nullptr;
std::vector<ParamVec>* DefenseFixture::snapshots_ = nullptr;
ParamVec* DefenseFixture::poisoned_params_ = nullptr;
ParamVec* DefenseFixture::genuine_params_ = nullptr;

TEST_F(DefenseFixture, RequiresServerHoldoutForServerModes) {
  EXPECT_THROW(BaffleDefense(*arch_, config(DefenseMode::kServerOnly),
                             Dataset(task_->config.dim,
                                     task_->config.num_classes)),
               std::invalid_argument);
  EXPECT_NO_THROW(BaffleDefense(*arch_, config(DefenseMode::kClientsOnly),
                                Dataset(task_->config.dim,
                                        task_->config.num_classes)));
}

TEST_F(DefenseFixture, ReadyAfterEnoughCommits) {
  Rng rng(14);
  BaffleDefense defense(*arch_, config(DefenseMode::kClientsOnly),
                        Dataset(task_->config.dim,
                                task_->config.num_classes));
  EXPECT_FALSE(defense.ready());
  for (std::size_t i = 0; i < 8; ++i) {
    defense.on_commit(i, (*snapshots_)[i]);
  }
  EXPECT_TRUE(defense.ready());
}

TEST_F(DefenseFixture, WindowBoundedByLookback) {
  const BaffleDefense defense = make_defense(DefenseMode::kClientsOnly);
  EXPECT_EQ(defense.current_window().size(), kLookback + 1);
}

TEST_F(DefenseFixture, AcceptsGenuineCandidate) {
  BaffleDefense defense = make_defense(DefenseMode::kClientsAndServer);
  const auto d = defense.evaluate(*genuine_params_, validator_ids(),
                                  *clients_, {}, VoteStrategy::kHonest);
  EXPECT_FALSE(d.reject);
}

TEST_F(DefenseFixture, RejectsPoisonedCandidate) {
  BaffleDefense defense = make_defense(DefenseMode::kClientsAndServer);
  const auto d = defense.evaluate(*poisoned_params_, validator_ids(),
                                  *clients_, {}, VoteStrategy::kHonest);
  EXPECT_TRUE(d.reject);
  EXPECT_GE(d.reject_votes, 4u);
}

TEST_F(DefenseFixture, ServerOnlyModeUsesSingleVote) {
  BaffleDefense defense = make_defense(DefenseMode::kServerOnly);
  const auto d = defense.evaluate(*poisoned_params_, validator_ids(),
                                  *clients_, {}, VoteStrategy::kHonest);
  EXPECT_EQ(d.total_voters, 1u);
  EXPECT_TRUE(d.server_voted);
  EXPECT_TRUE(d.reject);
}

TEST_F(DefenseFixture, EmptyShardClientAbstains) {
  BaffleDefense defense = make_defense(DefenseMode::kClientsOnly);
  const auto d = defense.evaluate(*poisoned_params_, {8}, *clients_, {},
                                  VoteStrategy::kHonest);
  EXPECT_EQ(d.abstentions, 1u);
  EXPECT_FALSE(d.reject);
  EXPECT_EQ(defense.client_validator(8, *clients_), nullptr);
}

TEST_F(DefenseFixture, ColludingVotersLowerRejectCount) {
  BaffleDefense honest_defense = make_defense(DefenseMode::kClientsOnly);
  BaffleDefense attacked_defense = make_defense(DefenseMode::kClientsOnly);
  const auto honest = honest_defense.evaluate(
      *poisoned_params_, validator_ids(), *clients_, {}, VoteStrategy::kHonest);
  const auto attacked = attacked_defense.evaluate(
      *poisoned_params_, validator_ids(), *clients_, {0, 1, 2},
      VoteStrategy::kAlwaysAccept);
  EXPECT_LT(attacked.reject_votes, honest.reject_votes);
  // With q=4 and only 3 colluders of 8, rejection still carries.
  EXPECT_TRUE(attacked.reject);
}

TEST_F(DefenseFixture, DosVotersCannotRejectCleanModelBelowQuorum) {
  // q = 6 leaves room for up to two honest-but-noisy reject votes on a
  // genuine model while keeping the 3 DoS voters below quorum (§IV-B's
  // n_M + ρ(n − n_M) < q bound with ρ = 2/5).
  BaffleDefense defense = make_defense(DefenseMode::kClientsOnly, 6);
  const auto d = defense.evaluate(*genuine_params_, validator_ids(),
                                  *clients_, {0, 1, 2},
                                  VoteStrategy::kAlwaysReject);
  EXPECT_FALSE(d.reject);
  EXPECT_GE(d.reject_votes, 3u);
  EXPECT_LE(d.reject_votes, 5u);
}

TEST_F(DefenseFixture, UnknownValidatorIdThrows) {
  BaffleDefense defense = make_defense(DefenseMode::kClientsOnly);
  EXPECT_THROW(defense.evaluate(*genuine_params_, {99}, *clients_, {},
                                VoteStrategy::kHonest),
               std::out_of_range);
}

TEST_F(DefenseFixture, ValidatorsPersistAcrossRounds) {
  BaffleDefense defense = make_defense(DefenseMode::kClientsOnly);
  defense.evaluate(*genuine_params_, {0, 1}, *clients_, {},
                   VoteStrategy::kHonest);
  Validator* v = defense.client_validator(0, *clients_);
  ASSERT_NE(v, nullptr);
  const auto misses = v->counts().cache_misses;
  defense.evaluate(*genuine_params_, {0, 1}, *clients_, {},
                   VoteStrategy::kHonest);
  EXPECT_EQ(defense.client_validator(0, *clients_)->counts().cache_misses,
            misses);
}

}  // namespace
}  // namespace baffle
