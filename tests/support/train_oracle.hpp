#pragma once
// The oracle Mlp::compute_gradients is checked against: the row-major
// step, as train_sgd ran it before an output layer could run
// class-major. The training forward (Dense::forward_eval per layer), the
// row-loop softmax gradient, then per layer from the last the ReLU mask,
// dW = inᵀ·dout (gemm_atb), db = col_sum(dout) and din = dout·Wᵀ
// (gemm_abt). It shares no code with the library's step beyond the
// GEMM, column-sum and ReLU-mask kernels, which their own parity tests
// pin. Beside it, the cross-entropy the tests read and the library never
// computes.

#include <span>
#include <vector>

#include "nn/mlp.hpp"

namespace baffle {

/// The row loop's softmax cross-entropy gradient in place: per row of
/// `logits` (one sample each), the first maximum, exp and sum in column
/// order, divide by the sum, divide by the batch, subtract 1/batch at
/// the label.
void oracle_softmax_xent_rows(Matrix& logits, std::span<const int> labels);

/// The oracle step's gradients of the batch `x` against `labels`,
/// written into `model`'s gradient buffers.
void oracle_gradients(Mlp& model, const Matrix& x,
                      std::span<const int> labels);

/// Every gradient buffer of `model`, flat in parameter order.
std::vector<float> flat_gradients(const Mlp& model);

/// Mean softmax cross-entropy of `logits` (one row per sample) against
/// `labels`, each row's log-sum-exp taken in double.
double cross_entropy(const Matrix& logits, std::span<const int> labels);

/// The same for `model`'s logits on `x` (predict_oracle.hpp's
/// oracle_logits).
double cross_entropy(const Mlp& model, const Matrix& x,
                     std::span<const int> labels);

}  // namespace baffle
