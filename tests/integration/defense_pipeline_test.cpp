// Integration of FlServer + BaffleDefense without the experiment
// harness: drives the propose/evaluate/commit protocol by hand and
// checks the contracts between the pieces.

#include <gtest/gtest.h>

#include "core/defense.hpp"
#include "data/partition.hpp"
#include "data/synth.hpp"

namespace baffle {
namespace {

struct Pipeline {
  SynthTask task;
  std::vector<FlClient> clients;
  Dataset server_holdout;
  MlpConfig arch;
  FlServer server;
  BaffleDefense defense;
  HonestUpdateProvider provider;
  Rng rng{555};

  static SynthTask make_task() {
    Rng rng(50);
    SynthTaskConfig cfg = synth_vision10_config();
    cfg.train_per_class = 150;
    cfg.test_per_class = 30;
    return make_synth_task(cfg, rng);
  }

  static FlConfig fl_config() {
    FlConfig cfg;
    cfg.total_clients = 30;
    cfg.clients_per_round = 6;
    cfg.global_lr = 1.0;
    cfg.secure_aggregation = true;
    return cfg;
  }

  static FeedbackConfig feedback_config() {
    FeedbackConfig cfg;
    cfg.mode = DefenseMode::kClientsAndServer;
    cfg.quorum = 3;
    cfg.validator.lookback = 10;
    return cfg;
  }

  static Dataset make_holdout(const SynthTask& task) {
    Rng setup(51);
    return split_client_server(task.train, 0.1, setup).server_holdout;
  }

  Pipeline()
      : task(make_task()),
        server_holdout(make_holdout(task)),
        arch{{task.config.dim, 32, task.config.num_classes}},
        server(arch, fl_config(), 99),
        defense(arch, feedback_config(), server_holdout),
        provider(&clients, fl_config().local_train) {
    Rng setup(51);
    auto split = split_client_server(task.train, 0.1, setup);
    auto shards = dirichlet_partition(split.client_pool, 30, 0.9, setup);
    for (std::size_t i = 0; i < shards.size(); ++i) {
      clients.emplace_back(i, shards[i]);
    }

    // Pre-train and seed history.
    TrainConfig pre;
    pre.epochs = 12;
    pre.batch_size = 64;
    pre.sgd.learning_rate = 0.05f;
    Rng pre_rng(52);
    train_sgd(server.global_model(), task.train.features(),
              task.train.labels(), pre, pre_rng);
    defense.on_commit(server.version(), server.global_model().parameters());
  }

  /// Run one honest round through the full protocol; returns decision.
  FeedbackDecision honest_round() {
    const auto proposal = server.propose_round(provider, rng);
    FeedbackDecision decision;
    if (defense.ready()) {
      decision =
          defense.evaluate(proposal.candidate_params, proposal.contributors,
                           clients, {}, VoteStrategy::kHonest);
    }
    if (decision.reject) {
      server.discard(proposal);
      defense.on_reject();
    } else {
      server.commit(proposal);
      defense.on_commit(server.version(), proposal.candidate_params);
    }
    return decision;
  }
};

TEST(DefensePipeline, HistoryGrowsOnlyOnCommit) {
  Pipeline p;
  const std::size_t before = p.defense.history().size();
  std::size_t commits = 0;
  for (int i = 0; i < 8; ++i) {
    const auto d = p.honest_round();
    if (!d.reject) ++commits;
  }
  EXPECT_EQ(p.defense.history().size(), before + commits);
}

TEST(DefensePipeline, BecomesReadyAfterWarmup) {
  Pipeline p;
  EXPECT_FALSE(p.defense.ready());
  for (int i = 0; i < 12; ++i) p.honest_round();
  EXPECT_TRUE(p.defense.ready());
}

TEST(DefensePipeline, HonestRoundsMostlyAccepted) {
  Pipeline p;
  for (int i = 0; i < 12; ++i) p.honest_round();  // warmup
  std::size_t rejects = 0;
  const int rounds = 10;
  for (int i = 0; i < rounds; ++i) {
    if (p.honest_round().reject) ++rejects;
  }
  EXPECT_LE(rejects, 3u);
}

TEST(DefensePipeline, WindowNeverExceedsLookbackPlusOne) {
  Pipeline p;
  for (int i = 0; i < 15; ++i) {
    p.honest_round();
    EXPECT_LE(p.defense.current_window().size(), 11u);
  }
}

TEST(DefensePipeline, VersionsInWindowAreStrictlyIncreasing) {
  Pipeline p;
  for (int i = 0; i < 6; ++i) p.honest_round();
  const auto window = p.defense.current_window();
  for (std::size_t i = 1; i < window.size(); ++i) {
    EXPECT_GT(window[i]->version, window[i - 1]->version);
  }
}

}  // namespace
}  // namespace baffle
