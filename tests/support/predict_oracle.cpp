#include "support/predict_oracle.hpp"

#include <algorithm>
#include <utility>

namespace baffle {

Matrix oracle_logits(const Mlp& model, const Matrix& x) {
  const std::vector<Dense>& layers = model.layers();
  Matrix in;
  Matrix out;
  layers.front().forward_eval(x, out);
  for (std::size_t i = 1; i < layers.size(); ++i) {
    std::swap(in, out);
    layers[i].forward_eval(in, out);
  }
  return out;
}

std::vector<std::size_t> oracle_argmax_rows(const Matrix& m) {
  std::vector<std::size_t> out(m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const auto row = m.row(r);
    out[r] = static_cast<std::size_t>(
        std::max_element(row.begin(), row.end()) - row.begin());
  }
  return out;
}

std::vector<std::size_t> oracle_predict(const Mlp& model, const Matrix& x) {
  return oracle_argmax_rows(oracle_logits(model, x));
}

std::vector<std::size_t> oracle_predict(const MlpConfig& arch,
                                        std::span<const float> params,
                                        const Matrix& x) {
  Mlp model(arch);
  model.set_parameters(params);
  return oracle_predict(model, x);
}

ConfusionMatrix oracle_confusion(const Mlp& model, const Dataset& data) {
  return tally_confusion(data, oracle_predict(model, data.features()));
}

}  // namespace baffle
