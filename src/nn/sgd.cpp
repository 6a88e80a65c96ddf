#include "nn/sgd.hpp"

#include "tensor/primitives.hpp"

namespace baffle {

void sgd_step(Mlp& model, float learning_rate) {
  for (Dense& layer : model.layers()) {
    sgd_update(layer.weights().flat(), layer.weight_grad().flat(),
               learning_rate);
    sgd_update(layer.bias(), layer.bias_grad(), learning_rate);
  }
}

}  // namespace baffle
