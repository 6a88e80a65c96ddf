#pragma once
// Adaptive (defense-aware) model replacement — §VI-C "Adaptive attacks".
//
// The attacker knows ℓ and q and runs the *defense's own* validation
// function on its local data, crafting the update "so that only the
// backdoor samples in its dataset are misclassified". Two stealth
// mechanisms combine:
//   1. training-side **behavior cloning**: the clean half of the
//      poisoned blend is labelled with the CURRENT GLOBAL MODEL'S
//      predictions instead of the ground truth, so the local model
//      reproduces G's per-class error profile on the attacker's data —
//      the variation point the attacker's own VALIDATE sees is ~0 —
//      while still learning the backdoor sub-task;
//   2. scale-back search: if the cloned model still fails the
//      attacker-side check, find the largest α ∈ [0.1, 1] on the
//      `alpha_step` grid such that the predicted global model
//      G + α(L − G) passes, and submit γ·α·(L − G); skip the round if
//      none does.
//
// The attacker-side check arrives as a predicate so this module stays
// independent of src/core (the experiment harness wires in a Validator
// built on the attacker's data and the same model history the validating
// clients receive).

#include <functional>
#include <optional>

#include "attack/model_replacement.hpp"

namespace baffle {

/// Returns true when the candidate *global-model parameters* would be
/// accepted in the attacker's view.
using AttackerSideCheck = std::function<bool(const ParamVec&)>;

struct AdaptiveAttackConfig {
  ModelReplacementConfig replacement;
  /// Scale-back grid: α descends from 1 in steps of this size, down to
  /// the smallest α worth injecting (0.1); below that the attacker
  /// skips the round.
  double alpha_step = 0.1;
};

struct AdaptiveUpdate {
  ParamVec update;     // γ·α·(L − G)
  double alpha = 0.0;  // chosen scale
  bool self_passed = false;  // the injection passed the attacker's check
};

/// Crafts the adaptive injection. Returns nullopt when no α ≥ 0.1
/// passes the attacker-side check (the attacker skips this round — such
/// rounds are not "adaptive injections" in the Table II sense).
std::optional<AdaptiveUpdate> craft_adaptive_update(
    const Mlp& global, const Dataset& attacker_clean,
    const Dataset& backdoor_pool, const AdaptiveAttackConfig& config,
    const AttackerSideCheck& self_check, Rng& rng);

}  // namespace baffle
