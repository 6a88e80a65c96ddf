#include "fl/client.hpp"

#include <stdexcept>

namespace baffle {

ParamVec FlClient::compute_update(const Mlp& global, const TrainConfig& config,
                                  Rng& rng) const {
  if (data_.empty()) {
    return ParamVec(global.num_params(), 0.0f);
  }
  return train_update(global, data_.features(), data_.labels(), config, rng);
}

ParamVec HonestUpdateProvider::update_for(std::size_t client_id,
                                          const Mlp& global, Rng& rng) {
  if (client_id >= clients_->size()) {
    throw std::out_of_range("HonestUpdateProvider: unknown client");
  }
  return (*clients_)[client_id].compute_update(global, config_, rng);
}

}  // namespace baffle
