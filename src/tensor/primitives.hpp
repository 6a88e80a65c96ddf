#pragma once
// Shared flat-vector primitives of the SGD step, secure-aggregation
// masking and the robust-aggregation baselines.
//
// The ones a workload runs hot (axpy, scale, relu_backward, the u64
// masking loops, the SGD update) dispatch to the scalar or SIMD kernel
// arm at runtime (see tensor/simd.hpp for the dispatch rules). The
// norm/distance/cosine reductions only the baselines call are one
// plain loop each, accumulating in double in index order, so they
// return the same bits on every arm.

#include <cstdint>
#include <span>
#include <vector>

namespace baffle {

/// y += alpha * x
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// x *= alpha
void scale(std::span<float> x, float alpha);

float l2_norm(std::span<const float> x);
float l2_distance(std::span<const float> a, std::span<const float> b);
/// ||a - b||^2 without the sqrt-then-square round trip (Krum's scores).
float squared_l2_distance(std::span<const float> a, std::span<const float> b);
float cosine_similarity(std::span<const float> a, std::span<const float> b);

/// grad zeroed where the activated output is <= 0.
void relu_backward(std::span<const float> activated, std::span<float> grad);

/// acc += x elementwise in Z_2^64 (secure-aggregation mask sums).
void add_u64(std::span<std::uint64_t> acc, std::span<const std::uint64_t> x);

/// plus[k] += m_k and minus[k] -= m_k in Z_2^64 for k < n, where
/// m_k = Rng::split_mix(seed + k * Rng::kGoldenGamma) is word k of the
/// counter-mode SplitMix64 keystream of `seed` (one secure-aggregation
/// pair mask, generated once for both endpoints). Either pointer may be
/// null, which skips that side. Exact integer arithmetic: bit-identical
/// on every arm.
void pair_keystream_u64(std::uint64_t* plus, std::uint64_t* minus,
                        std::uint64_t seed, std::size_t n);

/// Fixed-point encode: out[i] = round(x[i] * 2^frac_bits), halves away
/// from zero, as a two's-complement word. Returns the first index whose
/// |x[i] * 2^frac_bits| is not below 2^63 (NaN and ±Inf included), or
/// x.size() when every value encodes; only the words before the
/// returned index are written. Bit-identical on every arm.
std::size_t encode_fixed_u64(std::span<const float> x, unsigned frac_bits,
                             std::span<std::uint64_t> out);

/// One in-place SGD step on a parameter block: w += round(−lr · g) per
/// element. The product is never contracted into an FMA, so every arm
/// gives the same bytes; g is only read.
void sgd_update(std::span<float> w, std::span<const float> g, float lr);

/// out = a - b (allocating).
std::vector<float> subtract(std::span<const float> a, std::span<const float> b);

/// out = a + b (allocating).
std::vector<float> add(std::span<const float> a, std::span<const float> b);

}  // namespace baffle
