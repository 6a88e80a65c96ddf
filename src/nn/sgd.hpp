#pragma once
// Plain SGD with momentum and L2 weight decay, updating an Mlp's layers
// in place. The paper's clients run vanilla SGD (lr = 0.1, 2 local
// epochs); momentum/decay default to off to match.

#include <vector>

#include "nn/mlp.hpp"

namespace baffle {

struct SgdConfig {
  float learning_rate = 0.1f;
  float momentum = 0.0f;
  float weight_decay = 0.0f;
  /// Per-step gradient-norm clip; <= 0 disables.
  float grad_clip = 0.0f;
};

class Sgd {
 public:
  Sgd(std::size_t num_params, SgdConfig config);

  /// Applies one step using the model's accumulated gradients, then
  /// leaves them untouched (callers zero_grad per batch). Each layer's
  /// weights and bias are updated where they live (tensor/primitives.hpp
  /// sgd_update), so the step allocates nothing.
  void step(Mlp& model);

  const SgdConfig& config() const { return config_; }
  void set_learning_rate(float lr) { config_.learning_rate = lr; }

 private:
  /// Factor that clips the (decayed) gradient's norm to grad_clip; 1
  /// when clipping is off or the norm is within the bound.
  float clip_scale(const Mlp& model) const;

  SgdConfig config_;
  std::size_t num_params_;
  std::vector<float> velocity_;  // momentum > 0 only, flat parameter order
};

}  // namespace baffle
