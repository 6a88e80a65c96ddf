#include "attack/backdoor.hpp"

#include <stdexcept>

namespace baffle {

double backdoor_accuracy(const Mlp& model, const Dataset& backdoor_test,
                         int target_class) {
  MlpEvalWorkspace ws;
  return backdoor_accuracy(model, backdoor_test, target_class, ws);
}

double backdoor_accuracy(const Mlp& model, const Dataset& backdoor_test,
                         int target_class, MlpEvalWorkspace& ws) {
  const Matrix& x = backdoor_test.features();
  ws.predictions.resize(x.rows());
  if (!backdoor_test.empty()) {
    predict_classes(model.config(), model.parameters(), x, ws.predictions);
  }
  return backdoor_hit_rate(backdoor_test, target_class, ws.predictions);
}

double backdoor_hit_rate(const Dataset& backdoor_test, int target_class,
                         std::span<const std::size_t> predictions) {
  if (backdoor_test.empty()) {
    throw std::invalid_argument("backdoor_accuracy: empty test set");
  }
  if (target_class < 0 ||
      static_cast<std::size_t>(target_class) >= backdoor_test.num_classes()) {
    throw std::invalid_argument("backdoor_accuracy: bad target class");
  }
  if (predictions.size() != backdoor_test.size()) {
    throw std::invalid_argument("backdoor_accuracy: prediction count mismatch");
  }
  std::size_t hits = 0;
  for (std::size_t p : predictions) {
    if (p == static_cast<std::size_t>(target_class)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(predictions.size());
}

}  // namespace baffle
