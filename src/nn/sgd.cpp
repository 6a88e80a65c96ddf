#include "nn/sgd.hpp"

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

void Sgd::step(Mlp& model) {
  TrainWorkspace ws;
  step(model, ws);
}

void Sgd::step(Mlp& model, TrainWorkspace& ws) {
  if (model.num_params() != num_params_) {
    throw std::invalid_argument("Sgd::step: model size mismatch");
  }
  ws.grad.resize(num_params_);
  model.gradients_into(ws.grad);
  std::span<float> grad(ws.grad);
  if (config_.weight_decay > 0.0f) {
    ws.params.resize(num_params_);
    model.parameters_into(ws.params);
    axpy(config_.weight_decay, ws.params, grad);
  }
  if (config_.grad_clip > 0.0f) {
    const float norm = l2_norm(grad);
    if (norm > config_.grad_clip) scale(grad, config_.grad_clip / norm);
  }
  ws.delta.resize(grad.size());
  if (config_.momentum > 0.0f) {
    // v = momentum * v + g, then delta = -lr * v.
    scale_add(velocity_, config_.momentum, grad, 1.0f);
    scale_into(ws.delta, -config_.learning_rate, velocity_);
  } else {
    scale_into(ws.delta, -config_.learning_rate, grad);
  }
  model.add_to_parameters(ws.delta);
}

}  // namespace baffle
