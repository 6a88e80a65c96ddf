#include "nn/loss.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace baffle {

namespace {
void check_labels(const Matrix& logits, std::span<const int> labels) {
  if (labels.size() != logits.rows()) {
    throw std::invalid_argument("cross_entropy: label count mismatch");
  }
  for (int y : labels) {
    if (y < 0 || static_cast<std::size_t>(y) >= logits.cols()) {
      throw std::invalid_argument("cross_entropy: label out of range");
    }
  }
}
}  // namespace

double softmax_cross_entropy_into(const Matrix& logits,
                                  std::span<const int> labels,
                                  Matrix& dlogits) {
  check_labels(logits, labels);
  dlogits.resize(logits.rows(), logits.cols());
  std::copy(logits.flat().begin(), logits.flat().end(),
            dlogits.flat().begin());
  return softmax_xent_rows(dlogits, labels);
}

}  // namespace baffle
