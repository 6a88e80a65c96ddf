#pragma once
// Attacker-side success metric.

#include <span>

#include "data/backdoor_data.hpp"
#include "nn/multi_eval.hpp"

namespace baffle {

/// Backdoor accuracy (Eq. 1): fraction of backdoor instances the model
/// assigns to the attacker's target class. Only the attacker can compute
/// this — defenders do not know X* — so it appears exclusively in the
/// evaluation harness, never inside the defense.
double backdoor_accuracy(const Mlp& model, const Dataset& backdoor_test,
                         int target_class);

/// As above, with the predictions in `ws`, reused across calls. Both
/// predict through predict_classes (an engine bound to the set for this
/// call) and throw std::invalid_argument on an empty set, a target
/// outside the classes, or a set that is not as wide as the model's
/// input.
double backdoor_accuracy(const Mlp& model, const Dataset& backdoor_test,
                         int target_class, MlpEvalWorkspace& ws);

/// Eq. (1) over predictions already made on `backdoor_test`'s features
/// (one per sample, in order); throws like backdoor_accuracy.
double backdoor_hit_rate(const Dataset& backdoor_test, int target_class,
                         std::span<const std::size_t> predictions);

}  // namespace baffle
