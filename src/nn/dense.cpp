#include "nn/dense.hpp"

#include <cmath>

#include "tensor/ops.hpp"
#include "util/contracts.hpp"

namespace baffle {

Dense::Dense(std::size_t in_dim, std::size_t out_dim, bool relu)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      relu_(relu),
      weights_(in_dim, out_dim),
      bias_(out_dim, 0.0f),
      weight_grad_(in_dim, out_dim),
      bias_grad_(out_dim, 0.0f) {
  BAFFLE_CHECK(in_dim > 0 && out_dim > 0,
               "layer dimensions must be positive");
}

void Dense::init_weights(Rng& rng) {
  const double fan_in = static_cast<double>(in_dim_);
  const double scale =
      relu_ ? std::sqrt(2.0 / fan_in) : std::sqrt(1.0 / fan_in);
  for (float& w : weights_.flat()) {
    w = static_cast<float>(rng.normal(0.0, scale));
  }
  std::fill(bias_.begin(), bias_.end(), 0.0f);
}

void Dense::forward_eval(const Matrix& x, Matrix& out) const {
  BAFFLE_CHECK(x.cols() == in_dim_, "input width must match the layer");
  out.resize(x.rows(), out_dim_);
  gemm_ab_bias(x, weights_, bias_, relu_, out);
}

void Dense::backward_at(const Matrix& input, const Matrix& output,
                        Matrix& dout, Matrix* dx) {
  BAFFLE_CHECK(dout.rows() == input.rows() && dout.cols() == out_dim_ &&
                   input.cols() == in_dim_,
               "gradient/input shapes must match the layer and batch");
  if (relu_) relu_backward(output.flat(), dout.flat());
  // dW = xᵀ dout; db = colsum(dout); dx = dout Wᵀ. The GEMMs and
  // col_sum fold from +0, so they overwrite the grad buffers.
  gemm_atb(input, dout, weight_grad_);
  col_sum(dout, bias_grad_);
  if (dx != nullptr) {
    dx->resize(dout.rows(), in_dim_);
    gemm_abt(dout, weights_, *dx);
  }
}

}  // namespace baffle
