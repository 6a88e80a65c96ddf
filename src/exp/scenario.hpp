#pragma once
// Scenario builder: instantiates the paper's experimental environment —
// dataset, client/server data split, client population, attacker, and
// the FL configuration (§VI-A "Implementation Setup").

#include <optional>

#include "attack/model_replacement.hpp"
#include "data/partition.hpp"
#include "fl/server.hpp"

namespace baffle {

enum class TaskKind {
  kVision10,   // CIFAR-10 surrogate: semantic sub-population backdoor
  kFemnist62,  // FEMNIST surrogate: label-flipping backdoor
};

const char* task_kind_name(TaskKind kind);

struct ScenarioConfig {
  TaskKind task = TaskKind::kVision10;
  /// N: paper uses 100 (CIFAR-10) and 3550 (FEMNIST); the FEMNIST
  /// default here is scaled 10x down (see DESIGN.md §2).
  std::size_t num_clients = 100;
  std::size_t clients_per_round = 10;  // n
  /// S of the C-S% split: fraction of the training pool the server
  /// keeps as its validation holdout.
  double server_fraction = 0.10;
  double dirichlet_alpha = 0.9;
  bool iid = false;  // IID ablation switch
  bool secure_aggregation = true;
  /// Overrides for the synthetic task (0 = keep preset).
  std::size_t train_per_class_override = 0;
  /// Override the preset's backdoor kind (e.g. kTrigger for the
  /// backdoor-type ablation and the DBA attack).
  std::optional<BackdoorKind> backdoor_override;
};

ScenarioConfig vision_scenario(double server_fraction = 0.10);
ScenarioConfig femnist_scenario(double server_fraction = 0.01);

/// Fully materialized environment for one experiment run.
struct Scenario {
  ScenarioConfig config;
  SynthTask task;
  std::vector<FlClient> clients;
  Dataset server_holdout;
  std::size_t attacker_id = 0;
  BackdoorTask backdoor;
  MlpConfig arch;
  FlConfig fl;
};

/// Builds datasets, partitions them, picks the attacker (the client
/// holding the most source-class data, per §VI-A), and derives the model
/// architecture and FL configuration.
Scenario build_scenario(const ScenarioConfig& config, Rng& rng);

}  // namespace baffle
