#include "support/train_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/predict_oracle.hpp"
#include "tensor/ops.hpp"

namespace baffle {

void oracle_softmax_xent_rows(Matrix& logits, std::span<const int> labels) {
  const auto batch = static_cast<float>(logits.rows());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const std::span<float> x = logits.row(r);
    const float mx = *std::max_element(x.begin(), x.end());
    float total = 0.0f;
    for (float& v : x) {
      v = std::exp(v - mx);
      total += v;
    }
    for (float& v : x) v /= total;
    for (float& v : x) v /= batch;
    x[static_cast<std::size_t>(labels[r])] -= 1.0f / batch;
  }
}

void oracle_gradients(Mlp& model, const Matrix& x,
                      std::span<const int> labels) {
  std::vector<Dense>& layers = model.layers();
  std::vector<Matrix> acts(layers.size());
  layers.front().forward_eval(x, acts.front());
  for (std::size_t i = 1; i < layers.size(); ++i) {
    layers[i].forward_eval(acts[i - 1], acts[i]);
  }
  Matrix dout = acts.back();
  oracle_softmax_xent_rows(dout, labels);
  for (std::size_t i = layers.size(); i-- > 0;) {
    Dense& layer = layers[i];
    const Matrix& input = i == 0 ? x : acts[i - 1];
    if (layer.relu()) relu_backward(acts[i].flat(), dout.flat());
    gemm_atb(input, dout, layer.weight_grad());
    col_sum(dout, layer.bias_grad());
    if (i == 0) break;
    Matrix din(dout.rows(), layer.in_dim());
    gemm_abt(dout, layer.weights(), din);
    dout = std::move(din);
  }
}

std::vector<float> flat_gradients(const Mlp& model) {
  std::vector<float> flat;
  for (const Dense& layer : model.layers()) {
    const auto g = layer.weight_grad().flat();
    flat.insert(flat.end(), g.begin(), g.end());
    flat.insert(flat.end(), layer.bias_grad().begin(),
                layer.bias_grad().end());
  }
  return flat;
}

double cross_entropy(const Matrix& logits, std::span<const int> labels) {
  double total = 0.0;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const std::span<const float> z = logits.row(r);
    const double mx = *std::max_element(z.begin(), z.end());
    double sum = 0.0;
    for (float v : z) sum += std::exp(static_cast<double>(v) - mx);
    total += mx + std::log(sum) - z[static_cast<std::size_t>(labels[r])];
  }
  return total / static_cast<double>(logits.rows());
}

double cross_entropy(const Mlp& model, const Matrix& x,
                     std::span<const int> labels) {
  return cross_entropy(oracle_logits(model, x), labels);
}

}  // namespace baffle
