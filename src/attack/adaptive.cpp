#include "attack/adaptive.hpp"

#include <algorithm>
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
  const ParamVec base = global.parameters();
  Dataset clean_view(attacker_clean.dim(), attacker_clean.num_classes());
  if (!attacker_clean.empty()) {
    std::vector<std::size_t> preds(attacker_clean.size());
    predict_classes(global.config(), base, attacker_clean.features(), preds);
    clean_view.reserve(attacker_clean.size());
    for (std::size_t i = 0; i < attacker_clean.size(); ++i) {
      clean_view.add(attacker_clean.x(i), static_cast<int>(preds[i]));
    }
  }
  const Dataset poisoned = make_poisoned_training_set(
      clean_view, backdoor_pool, config.replacement.task,
      config.replacement.poison_fraction, rng);
  // The local model L is leased, as train_update's is, and released
  // before the search below runs the attacker's check.
  ParamVec direction(global.num_params());
  {
    const LeasedMlp local(global.config());
    local->copy_parameters_from(global);
    train_sgd(*local, poisoned.features(), poisoned.labels(),
              config.replacement.train, rng);
    if (!clean_view.empty()) {
      // One clean-only fine-tuning epoch after the poisoned blend.
      TrainConfig cleanup = config.replacement.train;
      cleanup.epochs = 1;
      train_sgd(*local, clean_view.features(), clean_view.labels(), cleanup,
                rng);
    }
    local->parameter_delta_into(global, direction);
  }

  // Scale-back search: largest α whose predicted global model passes the
  // attacker's own validation. Below kMinAlpha the injection is not
  // worth it and the attacker skips the round.
  constexpr double kMinAlpha = 0.1;
  ParamVec predicted(base.size());
  for (double alpha = 1.0; alpha >= kMinAlpha - 1e-9;
       alpha -= config.alpha_step) {
    std::ranges::copy(base, predicted.begin());
    axpy(static_cast<float>(alpha), direction, predicted);
    if (self_check(predicted)) {
      AdaptiveUpdate out;
      out.update = std::move(direction);
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
