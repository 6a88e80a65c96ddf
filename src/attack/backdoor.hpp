#pragma once
// Attacker-side success metric.

#include <span>

#include "data/backdoor_data.hpp"
#include "nn/mlp.hpp"

namespace baffle {

/// Backdoor accuracy (Eq. 1): fraction of backdoor instances the model
/// assigns to the attacker's target class. Only the attacker can compute
/// this — defenders do not know X* — so it appears exclusively in the
/// evaluation harness, never inside the defense.
double backdoor_accuracy(const Mlp& model, const Dataset& backdoor_test,
                         int target_class);

/// Zero-copy variant: inference streams through `ws` (allocation-free
/// once warm) — used by the per-round accuracy tracking path.
double backdoor_accuracy(const Mlp& model, const Dataset& backdoor_test,
                         int target_class, MlpEvalWorkspace& ws);

/// Eq. (1) over predictions already made on `backdoor_test`'s features
/// (one per sample, in order); throws like backdoor_accuracy.
double backdoor_hit_rate(const Dataset& backdoor_test, int target_class,
                         std::span<const std::size_t> predictions);

}  // namespace baffle
