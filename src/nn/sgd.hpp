#pragma once
// Plain SGD, the paper's client optimizer (lr = 0.1, 2 local epochs),
// updating an Mlp's layers in place.

#include "nn/mlp.hpp"

namespace baffle {

struct SgdConfig {
  float learning_rate = 0.1f;
};

/// One step, w += round(−lr·g), from the gradients that the last
/// compute_gradients left in the layers; it only reads them. Each layer's
/// weights and bias are updated where they live (tensor/primitives.hpp
/// sgd_update), so the step allocates nothing.
void sgd_step(Mlp& model, float learning_rate);

}  // namespace baffle
