#include "attack/model_replacement.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace baffle {

ParamVec craft_replacement_update(const Mlp& global,
                                  const Dataset& attacker_clean,
                                  const Dataset& backdoor_pool,
                                  const ModelReplacementConfig& config,
                                  Rng& rng) {
  if (config.boost <= 0.0) {
    throw std::invalid_argument("craft_replacement_update: bad scaling");
  }
  const Dataset poisoned = make_poisoned_training_set(
      attacker_clean, backdoor_pool, config.task, config.poison_fraction,
      rng);
  ParamVec update = train_update(global, poisoned.features(),
                                 poisoned.labels(), config.train, rng);
  scale(update, static_cast<float>(config.boost));
  return update;
}

ParamVec MaliciousUpdateProvider::update_for(std::size_t client_id,
                                             const Mlp& global, Rng& rng) {
  if (client_id != attacker_id_ || !armed_) {
    return honest_.update_for(client_id, global, rng);
  }
  return craft_replacement_update(global, attacker_clean_, backdoor_pool_,
                                  config_, rng);
}

}  // namespace baffle
