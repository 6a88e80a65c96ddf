#pragma once
// Fully-connected layer. It owns its weights, bias and their gradient
// buffers; the forward activations live in the caller's workspace.

#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace baffle {

class Dense {
 public:
  /// A hidden layer (`relu`) applies ReLU to x W + b; the output layer
  /// is linear (softmax lives in the loss).
  Dense(std::size_t in_dim, std::size_t out_dim, bool relu);

  /// He initialization for a ReLU layer, Glorot for the linear one
  /// (scaled by fan-in).
  void init_weights(Rng& rng);

  /// out = x W + b, then ReLU when relu(), reusing out's storage. Safe
  /// to call concurrently on a const layer: it reads the weights in
  /// place (or packs them into per-call scratch) and writes only `out`.
  void forward_eval(const Matrix& x, Matrix& out) const;

  /// Given dL/d(out), writes dL/dW and dL/db into the layer's grad
  /// buffers (overwriting them: one backward per step) and dL/dx into
  /// `dx` (skipped when dx == nullptr, i.e., for the first layer; its
  /// storage is reused via resize). `input` is this layer's input and
  /// `output` its activated output from forward_eval. `dout` is
  /// modified in place.
  void backward_at(const Matrix& input, const Matrix& output, Matrix& dout,
                   Matrix* dx);

  std::size_t in_dim() const { return in_dim_; }
  std::size_t out_dim() const { return out_dim_; }
  bool relu() const { return relu_; }
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
  bool relu_;

  Matrix weights_;            // (in, out)
  std::vector<float> bias_;   // (out)
  Matrix weight_grad_;        // (in, out)
  std::vector<float> bias_grad_;
};

}  // namespace baffle
