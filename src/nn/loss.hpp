#pragma once
// The gradient of softmax cross-entropy, the loss train_sgd descends,
// with respect to a batch's logits. Each call overwrites its logits in
// place, so the step allocates nothing; the loss itself is never
// needed and never computed.

#include <span>

#include "tensor/matrix.hpp"

namespace baffle {

/// `logits` (batch x classes, one row per sample) holds the logits on
/// entry and dL/dlogits = (softmax − onehot) / batch of the batch's mean
/// loss on exit. Throws std::invalid_argument on a label count that is
/// not the batch or a label outside [0, classes).
void softmax_xent_grad(Matrix& logits, std::span<const int> labels);

/// Most classes the class-major gradient takes: one 16-lane GEMM panel.
inline constexpr std::size_t kClassMajorMaxClasses = 16;

/// The same gradient class-major, for at most kClassMajorMaxClasses
/// classes: `logits_t` (classes x batch, one column per sample) holds
/// each logit without its bias on entry, and each logit is that value
/// plus bias[c], one add. On exit `logits_t` holds dL/dlogitsᵀ, and
/// bias_grad[c] is row c of it folded in sample order from +0. Byte for
/// byte the row-major call's gradient, transposed, and its column sums.
/// Throws like the row-major call.
void softmax_xent_grad_class_major(Matrix& logits_t,
                                   std::span<const float> bias,
                                   std::span<const int> labels,
                                   std::span<float> bias_grad);

}  // namespace baffle
