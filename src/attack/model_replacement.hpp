#pragma once
// Model-replacement attack (Bagdasaryan et al., AISTATS'20) — the
// paper's benchmark adversary.
//
// A single malicious client trains the global model on a blend of
// correctly-labelled data and relabelled backdoor instances
// (multi-task learning: the blend preserves main-task accuracy while
// teaching the adversarial sub-task), then submits the update scaled by
// the boost factor γ so the aggregation step replaces the global model
// with the attacker's local model.

#include "attack/backdoor.hpp"
#include "fl/client.hpp"

namespace baffle {

struct ModelReplacementConfig {
  BackdoorTask task;
  double poison_fraction = 0.3;  // share of backdoor samples in the blend
  double boost = 10.0;           // γ = N/λ (FedAvgAggregator::replacement_boost)
  TrainConfig train;             // attacker-side training (can differ from
                                 // honest clients')
};

/// Trains the attacker's poisoned local model L and returns the boosted
/// update γ·(L − G).
ParamVec craft_replacement_update(const Mlp& global,
                                  const Dataset& attacker_clean,
                                  const Dataset& backdoor_pool,
                                  const ModelReplacementConfig& config,
                                  Rng& rng);

/// UpdateProvider that behaves honestly except for the attacker-
/// controlled client id, which submits a model-replacement update
/// whenever `poison_armed()` is set for the current proposal.
class MaliciousUpdateProvider final : public UpdateProvider {
 public:
  MaliciousUpdateProvider(HonestUpdateProvider honest,
                          std::size_t attacker_id, Dataset attacker_clean,
                          Dataset backdoor_pool,
                          ModelReplacementConfig config)
      : honest_(std::move(honest)),
        attacker_id_(attacker_id),
        attacker_clean_(std::move(attacker_clean)),
        backdoor_pool_(std::move(backdoor_pool)),
        config_(std::move(config)) {}

  void arm(bool poison) { armed_ = poison; }
  bool armed() const { return armed_; }
  std::size_t attacker_id() const { return attacker_id_; }
  ModelReplacementConfig& config() { return config_; }

  ParamVec update_for(std::size_t client_id, const Mlp& global,
                      Rng& rng) override;

 private:
  HonestUpdateProvider honest_;
  std::size_t attacker_id_;
  Dataset attacker_clean_;
  Dataset backdoor_pool_;
  ModelReplacementConfig config_;
  bool armed_ = false;
};

}  // namespace baffle
