#include "exp/scenario.hpp"

#include <stdexcept>

namespace baffle {

const char* task_kind_name(TaskKind kind) {
  switch (kind) {
    case TaskKind::kVision10: return "vision10";
    case TaskKind::kFemnist62: return "femnist62";
  }
  return "?";
}

ScenarioConfig vision_scenario(double server_fraction) {
  ScenarioConfig cfg;
  cfg.task = TaskKind::kVision10;
  // Paper: 100 clients over 50k CIFAR images (~450 samples/client). The
  // population is scaled 2x down so per-client shards stay at the
  // paper's order (~180 samples at the 90-10 split) within the CPU
  // budget; the per-round dynamics (n = 10 contributors/validators) are
  // unchanged.
  cfg.num_clients = 50;
  cfg.clients_per_round = 10;
  cfg.server_fraction = server_fraction;
  cfg.dirichlet_alpha = 0.9;
  return cfg;
}

ScenarioConfig femnist_scenario(double server_fraction) {
  ScenarioConfig cfg;
  cfg.task = TaskKind::kFemnist62;
  // Paper: 3550 clients. Scaled 10x down so the per-client shard size
  // (and hence validator-side statistics) stays in the paper's regime;
  // the sampling ratio n/N only affects how often a given client is
  // selected, not the per-round dynamics.
  cfg.num_clients = 355;
  cfg.clients_per_round = 10;
  cfg.server_fraction = server_fraction;
  cfg.dirichlet_alpha = 0.9;
  return cfg;
}

Scenario build_scenario(const ScenarioConfig& config, Rng& rng) {
  if (config.clients_per_round == 0 ||
      config.clients_per_round > config.num_clients) {
    throw std::invalid_argument("build_scenario: bad clients_per_round");
  }
  Scenario s;
  s.config = config;

  SynthTaskConfig task_cfg = config.task == TaskKind::kVision10
                                 ? synth_vision10_config()
                                 : synth_femnist62_config();
  if (config.train_per_class_override > 0) {
    task_cfg.train_per_class = config.train_per_class_override;
  }
  if (config.backdoor_override) {
    task_cfg.backdoor_kind = *config.backdoor_override;
  }
  s.task = make_synth_task(task_cfg, rng);
  s.backdoor = BackdoorTask{task_cfg.backdoor_kind, task_cfg.backdoor_source,
                            task_cfg.backdoor_target};

  // C-S% split: the server keeps its holdout, clients share the rest.
  auto split = split_client_server(s.task.train, config.server_fraction, rng);
  s.server_holdout = std::move(split.server_holdout);
  const auto shards =
      config.iid
          ? iid_partition(split.client_pool, config.num_clients, rng)
          : dirichlet_partition(split.client_pool, config.num_clients,
                                config.dirichlet_alpha, rng);
  s.clients.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    s.clients.emplace_back(i, shards[i]);
  }

  // Attacker: the client with the most source-class data (paper §VI-A:
  // "We select the source class so that the adversary has most data, to
  // favor the attacker" — equivalently, hand the adversary the client
  // best supplied with the source class).
  std::size_t best = 0, best_count = 0;
  for (std::size_t i = 0; i < s.clients.size(); ++i) {
    const auto counts = s.clients[i].data().class_counts();
    const std::size_t c =
        counts[static_cast<std::size_t>(s.backdoor.source_class)];
    if (c > best_count) {
      best = i;
      best_count = c;
    }
  }
  s.attacker_id = best;

  // Architecture: one hidden layer is enough for the Gaussian-mixture
  // tasks while keeping 800-round runs cheap.
  const std::size_t hidden = config.task == TaskKind::kVision10 ? 64 : 96;
  s.arch = MlpConfig{{task_cfg.dim, hidden, task_cfg.num_classes},
                     Activation::kRelu};

  s.fl.total_clients = config.num_clients;
  s.fl.clients_per_round = config.clients_per_round;
  // λ = 1: the conservative global-learning-rate regime (each round
  // moves G by λ·n/N = 10% of the mean local drift). This matches the
  // paper's stable-model setting, where per-round global change is small
  // relative to a boosted replacement update; λ = N/n (full replacement)
  // is exercised in tests and the non-IID ablation.
  s.fl.global_lr = 1.0;
  s.fl.local_train.epochs = 2;           // paper: 2 local epochs
  s.fl.local_train.batch_size = 32;
  s.fl.local_train.sgd.learning_rate = 0.1f;  // paper: lr 0.1
  s.fl.secure_aggregation = config.secure_aggregation;
  return s;
}

}  // namespace baffle
