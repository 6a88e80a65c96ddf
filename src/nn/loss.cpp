#include "nn/loss.hpp"

#include <stdexcept>

#include "tensor/kernels.hpp"

namespace baffle {

static_assert(kClassMajorMaxClasses == kernels::kPanelCols);

namespace {
void check_labels(std::size_t batch, std::size_t classes,
                  std::span<const int> labels) {
  if (labels.size() != batch) {
    throw std::invalid_argument("cross_entropy: label count mismatch");
  }
  for (int y : labels) {
    if (y < 0 || static_cast<std::size_t>(y) >= classes) {
      throw std::invalid_argument("cross_entropy: label out of range");
    }
  }
}
}  // namespace

void softmax_xent_grad(Matrix& logits, std::span<const int> labels) {
  check_labels(logits.rows(), logits.cols(), labels);
  kernels::active_table().softmax_xent_rows(
      logits.flat().data(), labels.data(), logits.rows(), logits.cols());
}

void softmax_xent_grad_class_major(Matrix& logits_t,
                                   std::span<const float> bias,
                                   std::span<const int> labels,
                                   std::span<float> bias_grad) {
  const std::size_t classes = logits_t.rows();
  if (classes > kClassMajorMaxClasses || bias.size() != classes ||
      bias_grad.size() != classes) {
    throw std::invalid_argument(
        "cross_entropy: class-major takes at most 16 classes and one "
        "bias and bias-gradient entry per class");
  }
  check_labels(logits_t.cols(), classes, labels);
  kernels::active_table().softmax_xent_class_major(
      logits_t.flat().data(), bias.data(), labels.data(), classes,
      logits_t.cols(), bias_grad.data());
}

}  // namespace baffle
