#pragma once
// Softmax cross-entropy loss with fused gradient.

#include <span>

#include "tensor/matrix.hpp"

namespace baffle {

/// Returns the mean softmax cross-entropy of `logits` against integer
/// `labels` and writes dL/dlogits = (softmax - onehot) / batch into a
/// caller-owned buffer (storage reused via resize), so it allocates
/// nothing once `dlogits` is warm.
double softmax_cross_entropy_into(const Matrix& logits,
                                  std::span<const int> labels,
                                  Matrix& dlogits);

}  // namespace baffle
