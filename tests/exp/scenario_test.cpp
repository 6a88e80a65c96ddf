#include "exp/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace baffle {
namespace {

TEST(Scenario, VisionPresetFields) {
  const ScenarioConfig cfg = vision_scenario(0.05);
  EXPECT_EQ(cfg.task, TaskKind::kVision10);
  EXPECT_EQ(cfg.clients_per_round, 10u);
  EXPECT_DOUBLE_EQ(cfg.server_fraction, 0.05);
  EXPECT_DOUBLE_EQ(cfg.dirichlet_alpha, 0.9);
}

TEST(Scenario, FemnistPresetFields) {
  const ScenarioConfig cfg = femnist_scenario(0.001);
  EXPECT_EQ(cfg.task, TaskKind::kFemnist62);
  EXPECT_EQ(cfg.num_clients, 355u);
  EXPECT_DOUBLE_EQ(cfg.server_fraction, 0.001);
}

TEST(Scenario, BuildPartitionsAllTrainingData) {
  Rng rng(1);
  ScenarioConfig cfg = vision_scenario(0.10);
  cfg.train_per_class_override = 200;
  const Scenario s = build_scenario(cfg, rng);
  std::size_t client_total = 0;
  for (const auto& c : s.clients) client_total += c.data().size();
  EXPECT_EQ(client_total + s.server_holdout.size(), s.task.train.size());
  EXPECT_EQ(s.clients.size(), cfg.num_clients);
}

TEST(Scenario, ServerFractionRespected) {
  Rng rng(2);
  ScenarioConfig cfg = vision_scenario(0.10);
  cfg.train_per_class_override = 200;
  const Scenario s = build_scenario(cfg, rng);
  const double frac = static_cast<double>(s.server_holdout.size()) /
                      static_cast<double>(s.task.train.size());
  EXPECT_NEAR(frac, 0.10, 0.01);
}

TEST(Scenario, AttackerHoldsMostSourceClassData) {
  Rng rng(3);
  ScenarioConfig cfg = vision_scenario(0.10);
  cfg.train_per_class_override = 300;
  const Scenario s = build_scenario(cfg, rng);
  const auto source = static_cast<std::size_t>(s.backdoor.source_class);
  const std::size_t attacker_count =
      s.clients[s.attacker_id].data().class_counts()[source];
  for (const auto& c : s.clients) {
    EXPECT_LE(c.data().class_counts()[source], attacker_count);
  }
}

TEST(Scenario, GlobalLrAndArchDerived) {
  Rng rng(4);
  ScenarioConfig cfg = vision_scenario(0.10);
  cfg.train_per_class_override = 100;
  const Scenario s = build_scenario(cfg, rng);
  EXPECT_DOUBLE_EQ(s.fl.global_lr, 1.0);
  EXPECT_EQ(s.arch.layer_dims.front(), s.task.config.dim);
  EXPECT_EQ(s.arch.layer_dims.back(), s.task.config.num_classes);
  EXPECT_EQ(s.fl.local_train.epochs, 2u);  // paper: 2 local epochs
  EXPECT_FLOAT_EQ(s.fl.local_train.sgd.learning_rate, 0.1f);  // paper
}

TEST(Scenario, BackdoorOverrideApplies) {
  Rng rng(5);
  ScenarioConfig cfg = vision_scenario(0.10);
  cfg.train_per_class_override = 100;
  cfg.backdoor_override = BackdoorKind::kTrigger;
  const Scenario s = build_scenario(cfg, rng);
  EXPECT_EQ(s.backdoor.kind, BackdoorKind::kTrigger);
  EXPECT_EQ(s.task.config.backdoor_kind, BackdoorKind::kTrigger);
}

TEST(Scenario, IidSwitchBalancesClients) {
  Rng rng(6);
  ScenarioConfig cfg = vision_scenario(0.10);
  cfg.train_per_class_override = 300;
  cfg.iid = true;
  const Scenario s = build_scenario(cfg, rng);
  // IID shards have near-identical sizes.
  std::size_t mn = SIZE_MAX, mx = 0;
  for (const auto& c : s.clients) {
    mn = std::min(mn, c.data().size());
    mx = std::max(mx, c.data().size());
  }
  EXPECT_LE(mx - mn, 1u);
}

TEST(Scenario, RejectsBadClientsPerRound) {
  Rng rng(7);
  ScenarioConfig cfg = vision_scenario(0.10);
  cfg.clients_per_round = cfg.num_clients + 1;
  EXPECT_THROW(build_scenario(cfg, rng), std::invalid_argument);
}

// FNV-1a 64 over every byte a scenario's datasets hold, in a fixed order,
// so any change to the sample store, the generators or their Rng draws
// shows as a different digest.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void dataset(const Dataset& d) {
    u64(d.size());
    u64(d.dim());
    const auto x = d.features().flat();
    bytes(x.data(), x.size_bytes());
    bytes(d.labels().data(), d.labels().size() * sizeof(int));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

std::uint64_t scenario_digest(const ScenarioConfig& cfg,
                              std::size_t* attacker = nullptr) {
  Rng rng(4201);
  const Scenario s = build_scenario(cfg, rng);
  Fnv1a h;
  h.dataset(s.task.train);
  h.dataset(s.task.test);
  h.dataset(s.task.backdoor_train);
  h.dataset(s.task.backdoor_test);
  h.dataset(s.server_holdout);
  for (const auto& c : s.clients) h.dataset(c.data());
  h.u64(s.attacker_id);
  h.u64(rng.next_u64());
  if (attacker != nullptr) *attacker = s.attacker_id;
  return h.value();
}

TEST(Scenario, BuildIsByteStable) {
#if !defined(__GLIBCXX__)
  GTEST_SKIP() << "std::normal_distribution is implementation-defined; "
                  "the digests are libstdc++'s";
#endif
  std::size_t attacker = 0;
  EXPECT_EQ(scenario_digest(vision_scenario(0.10), &attacker),
            0xf17d418f104b5801ull);
  EXPECT_EQ(attacker, 17u);
  EXPECT_EQ(scenario_digest(femnist_scenario(0.01), &attacker),
            0x52fa22cf6e0892eeull);
  EXPECT_EQ(attacker, 16u);
  ScenarioConfig iid = vision_scenario(0.10);
  iid.iid = true;
  EXPECT_EQ(scenario_digest(iid), 0x8f40195e40d6e784ull);
  ScenarioConfig trigger = vision_scenario(0.10);
  trigger.backdoor_override = BackdoorKind::kTrigger;
  EXPECT_EQ(scenario_digest(trigger), 0xd4db82f8dca2b567ull);
}

TEST(Scenario, TaskKindNames) {
  EXPECT_STREQ(task_kind_name(TaskKind::kVision10), "vision10");
  EXPECT_STREQ(task_kind_name(TaskKind::kFemnist62), "femnist62");
}

}  // namespace
}  // namespace baffle
