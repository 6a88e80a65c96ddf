#include "nn/sgd.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace baffle {

Sgd::Sgd(std::size_t num_params, SgdConfig config)
    : config_(config), num_params_(num_params) {
  if (config.learning_rate <= 0.0f) {
    throw std::invalid_argument("Sgd: learning rate must be positive");
  }
  if (config.momentum < 0.0f || config.momentum >= 1.0f) {
    throw std::invalid_argument("Sgd: momentum out of [0,1)");
  }
  if (config.momentum > 0.0f) velocity_.assign(num_params, 0.0f);
}

float Sgd::clip_scale(const Mlp& model) const {
  if (config_.grad_clip <= 0.0f) return 1.0f;
  // One double accumulator over the layers' gradient buffers in flat
  // parameter order, each entry decayed exactly as sgd_update decays it
  // (this TU has no FMA codegen, so the product is rounded first). Not
  // a dispatched reduction, so every arm clips by the same factor.
  const float decay = config_.weight_decay;
  double sq = 0.0;
  const auto accumulate = [&](std::span<const float> w,
                              std::span<const float> g) {
    for (std::size_t i = 0; i < g.size(); ++i) {
      float gi = g[i];
      if (decay > 0.0f) gi += decay * w[i];
      sq += static_cast<double>(gi) * static_cast<double>(gi);
    }
  };
  for (const Dense& layer : model.layers()) {
    accumulate(layer.weights().flat(), layer.weight_grad().flat());
    accumulate(layer.bias(), layer.bias_grad());
  }
  const auto norm = static_cast<float>(std::sqrt(sq));
  return norm > config_.grad_clip ? config_.grad_clip / norm : 1.0f;
}

void Sgd::step(Mlp& model) {
  if (model.num_params() != num_params_) {
    throw std::invalid_argument("Sgd::step: model size mismatch");
  }
  const float grad_scale = clip_scale(model);
  std::span<float> velocity(velocity_);
  const auto update = [&](std::span<float> w, std::span<const float> g) {
    sgd_update(w, g, velocity.empty() ? velocity : velocity.first(w.size()),
               config_.learning_rate, config_.momentum,
               config_.weight_decay, grad_scale);
    if (!velocity.empty()) velocity = velocity.subspan(w.size());
  };
  for (Dense& layer : model.layers()) {
    update(layer.weights().flat(), layer.weight_grad().flat());
    update(layer.bias(), layer.bias_grad());
  }
}

}  // namespace baffle
