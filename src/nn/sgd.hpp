#pragma once
// Plain SGD with momentum and L2 weight decay, operating on an Mlp's
// flat parameter vector. The paper's clients run vanilla SGD (lr = 0.1,
// 2 local epochs); momentum/decay default to off to match.

#include <span>
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
  /// leaves them untouched (callers zero_grad per batch).
  void step(Mlp& model);

  /// Allocation-free step: gathers the flat gradient and builds the
  /// update inside the workspace's scratch vectors. Same arithmetic as
  /// step(Mlp&).
  void step(Mlp& model, TrainWorkspace& ws);

  const SgdConfig& config() const { return config_; }
  void set_learning_rate(float lr) { config_.learning_rate = lr; }

 private:
  SgdConfig config_;
  std::size_t num_params_;
  std::vector<float> velocity_;  // momentum > 0 only
};

}  // namespace baffle
