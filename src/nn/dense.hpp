#pragma once
// Fully-connected layer with cached activations for manual backprop.

#include "nn/activation.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace baffle {

class Dense {
 public:
  Dense(std::size_t in_dim, std::size_t out_dim, Activation act);

  /// He/Glorot-style initialization (scaled by fan-in).
  void init_weights(Rng& rng);

  /// Computes out = act(x W + b); caches x and the activated output for
  /// the subsequent backward() call.
  void forward(const Matrix& x, Matrix& out);

  /// Inference-only forward: same math as forward() but caches nothing,
  /// takes a view, and reuses out's storage. Safe to call concurrently
  /// on a const layer: it reads the weights in place (or packs them
  /// into per-call scratch) and writes only `out`.
  void forward_eval(ConstMatrixView x, Matrix& out) const;

  /// Given dL/d(out), accumulates dL/dW and dL/db into the layer's grad
  /// buffers and writes dL/dx into `dx` (skipped when dx == nullptr,
  /// i.e., for the first layer). `dout` is modified in place.
  void backward(Matrix& dout, Matrix* dx);

  /// Workspace backward: same math as backward() but reads the forward
  /// activations from caller-owned buffers (`input` = this layer's
  /// input, `output` = its activated output) instead of the internal
  /// caches, and OVERWRITES the grad buffers rather than accumulating —
  /// the allocation-free training loop runs exactly one backward per
  /// step. `dx` storage is reused via resize.
  void backward_at(const Matrix& input, const Matrix& output, Matrix& dout,
                   Matrix* dx);

  void zero_grad();

  std::size_t in_dim() const { return in_dim_; }
  std::size_t out_dim() const { return out_dim_; }
  Activation activation() const { return act_; }
  std::size_t num_params() const { return weights_.size() + bias_.size(); }

  Matrix& weights() { return weights_; }
  const Matrix& weights() const { return weights_; }
  std::vector<float>& bias() { return bias_; }
  const std::vector<float>& bias() const { return bias_; }
  Matrix& weight_grad() { return weight_grad_; }
  const Matrix& weight_grad() const { return weight_grad_; }
  std::vector<float>& bias_grad() { return bias_grad_; }
  const std::vector<float>& bias_grad() const { return bias_grad_; }

 private:
  std::size_t in_dim_;
  std::size_t out_dim_;
  Activation act_;

  Matrix weights_;            // (in, out)
  std::vector<float> bias_;   // (out)
  Matrix weight_grad_;        // (in, out)
  std::vector<float> bias_grad_;

  Matrix cached_input_;   // x from the last forward
  Matrix cached_output_;  // act(xW + b) from the last forward
};

}  // namespace baffle
