#include "attack/adaptive.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace baffle {

std::optional<AdaptiveUpdate> craft_adaptive_update(
    const Mlp& global, const Dataset& attacker_clean,
    const Dataset& backdoor_pool, const AdaptiveAttackConfig& config,
    const AttackerSideCheck& self_check, Rng& rng) {
  if (!self_check) {
    throw std::invalid_argument("craft_adaptive_update: no self check");
  }
  if (config.alpha_step <= 0.0) {
    throw std::invalid_argument("craft_adaptive_update: bad alpha grid");
  }

  // Stealth training by behavior cloning: the clean blend carries the
  // GLOBAL MODEL'S predicted labels, so the local model reproduces G's
  // error profile on the attacker's data (variation point ≈ 0 in the
  // attacker's own VALIDATE) while the relabelled backdoor samples
  // teach the adversarial sub-task.
  Dataset clean_view(attacker_clean.dim(), attacker_clean.num_classes());
  if (!attacker_clean.empty()) {
    const auto preds = global.predict(attacker_clean.features());
    clean_view.reserve(attacker_clean.size());
    for (std::size_t i = 0; i < attacker_clean.size(); ++i) {
      clean_view.add(attacker_clean.x(i), static_cast<int>(preds[i]));
    }
  }
  const Dataset poisoned = make_poisoned_training_set(
      clean_view, backdoor_pool, config.replacement.task,
      config.replacement.poison_fraction, rng);
  Mlp local = global;
  train_sgd(local, poisoned.features(), poisoned.labels(),
            config.replacement.train, rng);
  if (!clean_view.empty()) {
    // One clean-only fine-tuning epoch after the poisoned blend.
    TrainConfig cleanup = config.replacement.train;
    cleanup.epochs = 1;
    train_sgd(local, clean_view.features(), clean_view.labels(), cleanup,
              rng);
  }
  const ParamVec direction =
      subtract(local.parameters(), global.parameters());

  // Scale-back search: largest α whose predicted global model passes the
  // attacker's own validation. Below kMinAlpha the injection is not
  // worth it and the attacker skips the round.
  constexpr double kMinAlpha = 0.1;
  for (double alpha = 1.0; alpha >= kMinAlpha - 1e-9;
       alpha -= config.alpha_step) {
    ParamVec predicted = global.parameters();
    axpy(static_cast<float>(alpha), direction, predicted);
    if (self_check(predicted)) {
      AdaptiveUpdate out;
      out.update = direction;
      scale(out.update,
            static_cast<float>(config.replacement.boost * alpha));
      out.alpha = alpha;
      out.self_passed = true;
      return out;
    }
  }
  return std::nullopt;
}

}  // namespace baffle
