#pragma once
// Distributed Backdoor Attack (DBA, Xie et al., ICLR'20) — the
// multi-client poisoning strategy from the paper's related work (§VII).
//
// The global trigger pattern is split into m disjoint sub-patterns; each
// colluding client poisons with ONLY its part, so no single update
// carries the full trigger (defeating per-update similarity filters),
// yet the aggregated model responds to the combined pattern. BaFFLe is
// indifferent to the split: it judges the aggregated model, on which the
// full trigger's side effects land regardless of how the poison was
// distributed.

#include "attack/model_replacement.hpp"

namespace baffle {

struct DbaConfig {
  /// Number of colluding clients, each holding one trigger slice.
  std::size_t num_parts = 4;
  int target_class = 2;
  double poison_fraction = 0.3;
  /// Per-client boost; DBA splits γ across the colluders so the sum of
  /// their updates replaces the model (γ/m each when all are selected).
  double per_client_boost = 1.0;
  TrainConfig train;
};

/// Splits `pattern` into `parts` sub-patterns with disjoint support
/// (round-robin over the non-zero coordinates). The sum of the parts is
/// the original pattern.
std::vector<std::vector<float>> split_trigger(
    const std::vector<float>& pattern, std::size_t parts);

/// One colluder's DBA update: trains on its clean shard blended with
/// samples stamped by ITS trigger slice and relabelled to the target,
/// then scales by per_client_boost.
ParamVec craft_dba_update(const Mlp& global, const Dataset& attacker_clean,
                          const std::vector<float>& trigger_part,
                          const DbaConfig& config, Rng& rng);

/// UpdateProvider running the coordinated attack: each id in
/// `colluder_ids` submits a DBA update for its assigned trigger slice
/// when armed; everyone else trains honestly.
class DbaUpdateProvider final : public UpdateProvider {
 public:
  DbaUpdateProvider(HonestUpdateProvider honest,
                    std::vector<std::size_t> colluder_ids,
                    std::vector<Dataset> colluder_data,
                    std::vector<float> full_pattern, DbaConfig config);

  void arm(bool poison) { armed_ = poison; }
  const std::vector<std::size_t>& colluders() const { return colluder_ids_; }

  ParamVec update_for(std::size_t client_id, const Mlp& global,
                      Rng& rng) override;

 private:
  HonestUpdateProvider honest_;
  std::vector<std::size_t> colluder_ids_;
  std::vector<Dataset> colluder_data_;
  std::vector<std::vector<float>> parts_;
  DbaConfig config_;
  bool armed_ = false;
};

}  // namespace baffle
