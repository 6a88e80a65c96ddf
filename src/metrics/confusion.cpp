#include "metrics/confusion.hpp"

#include "util/contracts.hpp"

namespace baffle {

ConfusionMatrix::ConfusionMatrix(std::size_t num_classes)
    : num_classes_(num_classes), counts_(num_classes * num_classes, 0) {
  BAFFLE_CHECK(num_classes > 0,
               "ConfusionMatrix needs at least one class");
}

void ConfusionMatrix::record(int true_label, int predicted_label) {
  BAFFLE_CHECK(true_label >= 0 &&
                   static_cast<std::size_t>(true_label) < num_classes_,
               "true label out of class range");
  BAFFLE_CHECK(predicted_label >= 0 &&
                   static_cast<std::size_t>(predicted_label) < num_classes_,
               "predicted label out of class range");
  counts_[static_cast<std::size_t>(true_label) * num_classes_ +
          static_cast<std::size_t>(predicted_label)]++;
  ++total_;
}

std::size_t ConfusionMatrix::count(int true_label, int predicted_label) const {
  return counts_[static_cast<std::size_t>(true_label) * num_classes_ +
                 static_cast<std::size_t>(predicted_label)];
}

double ConfusionMatrix::accuracy() const {
  if (total_ == 0) return 0.0;
  std::size_t correct = 0;
  for (std::size_t y = 0; y < num_classes_; ++y) {
    correct += counts_[y * num_classes_ + y];
  }
  return static_cast<double>(correct) / static_cast<double>(total_);
}

std::vector<double> ConfusionMatrix::source_focused_errors() const {
  std::vector<double> out(num_classes_, 0.0);
  if (total_ == 0) return out;
  for (std::size_t y = 0; y < num_classes_; ++y) {
    std::size_t wrong = 0;
    for (std::size_t p = 0; p < num_classes_; ++p) {
      if (p != y) wrong += counts_[y * num_classes_ + p];
    }
    out[y] = static_cast<double>(wrong) / static_cast<double>(total_);
  }
  return out;
}

std::vector<double> ConfusionMatrix::target_focused_errors() const {
  std::vector<double> out(num_classes_, 0.0);
  if (total_ == 0) return out;
  for (std::size_t p = 0; p < num_classes_; ++p) {
    std::size_t wrong = 0;
    for (std::size_t y = 0; y < num_classes_; ++y) {
      if (y != p) wrong += counts_[y * num_classes_ + p];
    }
    out[p] = static_cast<double>(wrong) / static_cast<double>(total_);
  }
  return out;
}

std::vector<double> ConfusionMatrix::per_class_error_rates() const {
  std::vector<double> out(num_classes_, 0.0);
  for (std::size_t y = 0; y < num_classes_; ++y) {
    std::size_t class_total = 0, wrong = 0;
    for (std::size_t p = 0; p < num_classes_; ++p) {
      class_total += counts_[y * num_classes_ + p];
      if (p != y) wrong += counts_[y * num_classes_ + p];
    }
    out[y] = class_total == 0
                 ? 0.0
                 : static_cast<double>(wrong) / static_cast<double>(class_total);
  }
  return out;
}

ConfusionMatrix tally_confusion(const Dataset& data,
                                std::span<const std::size_t> predictions) {
  BAFFLE_CHECK(predictions.size() == data.size(),
               "tally_confusion: one prediction per sample");
  ConfusionMatrix cm(data.num_classes());
  const auto& labels = data.labels();
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    cm.record(labels[i], static_cast<int>(predictions[i]));
  }
  return cm;
}

ConfusionMatrix evaluate_confusion(const Mlp& model, const Dataset& data,
                                   MlpEvalWorkspace& ws) {
  if (data.empty()) return ConfusionMatrix(data.num_classes());
  ws.predictions.resize(data.size());
  predict_classes(model.config(), model.parameters(), data.features(),
                  ws.predictions);
  return tally_confusion(data, ws.predictions);
}

ConfusionMatrix evaluate_confusion(const Mlp& model, const Dataset& data) {
  MlpEvalWorkspace ws;
  return evaluate_confusion(model, data, ws);
}

}  // namespace baffle
