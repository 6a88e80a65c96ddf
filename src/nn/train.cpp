#include "nn/train.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace baffle {

TrainStats train_sgd(Mlp& model, const Matrix& x, std::span<const int> labels,
                     const TrainConfig& config, Rng& rng) {
  TrainWorkspace ws;
  return train_sgd(model, x, labels, config, rng, ws);
}

TrainStats train_sgd(Mlp& model, const Matrix& x, std::span<const int> labels,
                     const TrainConfig& config, Rng& rng,
                     TrainWorkspace& ws) {
  if (x.rows() != labels.size()) {
    throw std::invalid_argument("train_sgd: label count mismatch");
  }
  if (x.rows() == 0) return {};
  if (config.batch_size == 0) {
    throw std::invalid_argument("train_sgd: batch_size == 0");
  }

  const float lr = config.sgd.learning_rate;
  if (!(std::isfinite(lr) && lr > 0.0f)) {
    throw std::invalid_argument(
        "train_sgd: learning_rate must be finite and positive");
  }
  ws.order.resize(x.rows());
  std::iota(ws.order.begin(), ws.order.end(), std::size_t{0});

  TrainStats stats;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(ws.order);
    double epoch_loss = 0.0;
    std::size_t epoch_batches = 0;
    for (std::size_t start = 0; start < ws.order.size();
         start += config.batch_size) {
      const std::size_t count =
          std::min(config.batch_size, ws.order.size() - start);
      ws.batch.resize(count, x.cols());
      ws.batch_labels.resize(count);
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t src = ws.order[start + i];
        auto dst = ws.batch.row(i);
        auto row = x.row(src);
        std::copy(row.begin(), row.end(), dst.begin());
        ws.batch_labels[i] = labels[src];
      }
      const Matrix& logits = model.forward_train(ws.batch, ws);
      const double loss =
          softmax_cross_entropy_into(logits, ws.batch_labels, ws.dlogits);
      model.backward_train(ws.batch, ws);
      sgd_step(model, lr);
      epoch_loss += loss;
      ++epoch_batches;
      ++stats.steps;
    }
    if (epoch + 1 == config.epochs && epoch_batches > 0) {
      stats.final_loss = epoch_loss / static_cast<double>(epoch_batches);
    }
  }
  return stats;
}

double evaluate_accuracy(const Mlp& model, const Matrix& x,
                         std::span<const int> labels) {
  MlpEvalWorkspace ws;
  return evaluate_accuracy(model, ConstMatrixView(x), labels, ws);
}

double evaluate_accuracy(const Mlp& model, ConstMatrixView x,
                         std::span<const int> labels, MlpEvalWorkspace& ws) {
  if (x.rows() != labels.size()) {
    throw std::invalid_argument("evaluate_accuracy: label count mismatch");
  }
  if (x.rows() == 0) return 0.0;
  ws.predictions.resize(x.rows());
  model.predict_into(x, ws.predictions, ws);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < ws.predictions.size(); ++i) {
    if (ws.predictions[i] == static_cast<std::size_t>(labels[i])) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(x.rows());
}

}  // namespace baffle
