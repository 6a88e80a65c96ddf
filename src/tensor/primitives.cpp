#include "tensor/primitives.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/kernels.hpp"

namespace baffle {

namespace {
void check(bool cond, const char* what) {
  if (!cond) throw std::invalid_argument(what);
}
}  // namespace

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  check(x.size() == y.size(), "axpy: length mismatch");
  kernels::active_table().axpy(alpha, x.data(), y.data(), x.size());
}

void scale(std::span<float> x, float alpha) {
  kernels::active_table().scale(x.data(), alpha, x.size());
}

void abs_into(std::span<float> out, std::span<const float> x) {
  check(out.size() == x.size(), "abs_into: length mismatch");
  kernels::active_table().abs_into(out.data(), x.data(), x.size());
}

float dot(std::span<const float> a, std::span<const float> b) {
  check(a.size() == b.size(), "dot: length mismatch");
  return static_cast<float>(
      kernels::active_table().dot(a.data(), b.data(), a.size()));
}

float l2_norm(std::span<const float> x) {
  // sqrt in double, then round: matches the pre-SIMD l2_norm exactly.
  return static_cast<float>(
      std::sqrt(kernels::active_table().squared_l2(x.data(), x.size())));
}

float l2_distance(std::span<const float> a, std::span<const float> b) {
  check(a.size() == b.size(), "l2_distance: length mismatch");
  return static_cast<float>(std::sqrt(
      kernels::active_table().squared_l2_distance(a.data(), b.data(),
                                                  a.size())));
}

float squared_l2_distance(std::span<const float> a,
                          std::span<const float> b) {
  check(a.size() == b.size(), "squared_l2_distance: length mismatch");
  return static_cast<float>(kernels::active_table().squared_l2_distance(
      a.data(), b.data(), a.size()));
}

float cosine_similarity(std::span<const float> a, std::span<const float> b) {
  check(a.size() == b.size(), "cosine_similarity: length mismatch");
  return kernels::active_table().cosine_similarity(a.data(), b.data(),
                                                   a.size());
}

void relu_forward(std::span<float> x) {
  kernels::active_table().relu_forward(x.data(), x.size());
}

void relu_backward(std::span<const float> activated, std::span<float> grad) {
  check(activated.size() == grad.size(), "relu_backward: length mismatch");
  kernels::active_table().relu_backward(activated.data(), grad.data(),
                                        grad.size());
}

void add_u64(std::span<std::uint64_t> acc, std::span<const std::uint64_t> x) {
  check(acc.size() == x.size(), "add_u64: length mismatch");
  kernels::active_table().add_u64(acc.data(), x.data(), x.size());
}

void pair_keystream_u64(std::uint64_t* plus, std::uint64_t* minus,
                        std::uint64_t seed, std::size_t n) {
  kernels::active_table().pair_keystream_u64(plus, minus, seed, n);
}

std::size_t encode_fixed_u64(std::span<const float> x, unsigned frac_bits,
                             std::span<std::uint64_t> out) {
  check(out.size() == x.size(), "encode_fixed_u64: length mismatch");
  return kernels::active_table().encode_fixed_u64(x.data(), frac_bits,
                                                  out.data(), x.size());
}

double sum(std::span<const double> xs) {
  return kernels::active_table().sum_d(xs.data(), xs.size());
}

double sum_sq_diff(std::span<const double> xs, double center) {
  return kernels::active_table().sum_sq_diff_d(xs.data(), center, xs.size());
}

double softmax_xent_rows(Matrix& probs_grad, std::span<const int> labels) {
  return kernels::active_table().softmax_xent_rows(
      probs_grad.flat().data(), labels.data(), probs_grad.rows(),
      probs_grad.cols());
}

void sgd_update(std::span<float> w, std::span<const float> g, float lr) {
  check(g.size() == w.size(), "sgd_update: length mismatch");
  // Not dispatched, and not axpy: this TU has no FMA codegen, so the
  // product is rounded before its add on every arm, and the loop still
  // vectorizes at -O3.
  const float neg_lr = -lr;
  for (std::size_t i = 0; i < w.size(); ++i) w[i] += neg_lr * g[i];
}

std::vector<float> subtract(std::span<const float> a,
                            std::span<const float> b) {
  check(a.size() == b.size(), "subtract: length mismatch");
  std::vector<float> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

std::vector<float> add(std::span<const float> a, std::span<const float> b) {
  check(a.size() == b.size(), "add: length mismatch");
  std::vector<float> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

}  // namespace baffle
