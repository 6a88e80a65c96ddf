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

// The reductions accumulate in double, in index order: parameter
// vectors reach ~10^5 entries, and the cosine-similarity baselines
// (FoolsGold) are sensitive to cancellation. Not dispatched: no
// workload runs them hot, so every arm gets the same bits.
double squared_l2(std::span<const float> x) {
  double acc = 0.0;
  for (const float v : x) {
    acc += static_cast<double>(v) * static_cast<double>(v);
  }
  return acc;
}

double squared_l2_distance_d(std::span<const float> a,
                             std::span<const float> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return acc;
}
}  // namespace

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  check(x.size() == y.size(), "axpy: length mismatch");
  kernels::active_table().axpy(alpha, x.data(), y.data(), x.size());
}

void scale(std::span<float> x, float alpha) {
  kernels::active_table().scale(x.data(), alpha, x.size());
}

float l2_norm(std::span<const float> x) {
  return static_cast<float>(std::sqrt(squared_l2(x)));
}

float l2_distance(std::span<const float> a, std::span<const float> b) {
  check(a.size() == b.size(), "l2_distance: length mismatch");
  return static_cast<float>(std::sqrt(squared_l2_distance_d(a, b)));
}

float squared_l2_distance(std::span<const float> a,
                          std::span<const float> b) {
  check(a.size() == b.size(), "squared_l2_distance: length mismatch");
  return static_cast<float>(squared_l2_distance_d(a, b));
}

float cosine_similarity(std::span<const float> a, std::span<const float> b) {
  check(a.size() == b.size(), "cosine_similarity: length mismatch");
  const float na = static_cast<float>(std::sqrt(squared_l2(a)));
  const float nb = static_cast<float>(std::sqrt(squared_l2(b)));
  if (na == 0.0f || nb == 0.0f) return 0.0f;
  double dot = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return static_cast<float>(dot) / (na * nb);
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

void sgd_update(std::span<float> w, std::span<const float> g, float lr) {
  check(g.size() == w.size(), "sgd_update: length mismatch");
  kernels::active_table().sgd_update(w.data(), g.data(), lr, w.size());
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
