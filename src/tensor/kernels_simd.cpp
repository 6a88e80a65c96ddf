// Vector kernel arm: panel GEMM microkernels (ymm, plus zmm tiles
// chosen by CPUID) and 8-wide primitives written against
// tensor/simd.hpp. This translation unit is
// the only one compiled with -mavx2 -mfma -ffp-contract=fast (see
// src/CMakeLists.txt), which is why the kernels live behind the
// function-pointer table instead of in a header: nothing here may be
// inlined into code that must run on non-AVX2 CPUs.
//
// Numeric contract: the GEMM and eval-layer tiles and axpy differ from
// the scalar arm only by FMA rounding — within the parity-test
// tolerance — while scale, max, relu_backward, the u64 adds, the mask
// keystream and encode, Rng's twist and polar step, and the SGD step's
// transpose, two softmaxes, column sums and update are bit-exact. The
// ymm and zmm GEMM and eval-layer tiles are bit-identical to each
// other.

#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"
#include "util/contracts.hpp"

#if BAFFLE_SIMD_VEC_EXT && defined(BAFFLE_SIMD_TARGET_AVX2) && \
    defined(__x86_64__)

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#if defined(BAFFLE_HAVE_AVX512F_TARGET)
#include <immintrin.h>  // zmm fp32 kernels (vector-ext types elsewhere)
#endif

namespace baffle::kernels {
namespace {

using simd::f32x8;
using simd::i32x8;
using simd::kFloatLanes;
using simd::loada8;
using simd::loadu4u;
using simd::loadu8;
using simd::splat8;
using simd::storeu4u;
using simd::storeu8;
using simd::u64x4;
using simd::vmax8;
using simd::vrelu8;

/// One panel's bias as two vectors; the tail panel stages its live
/// columns so no load reads past the n-entry bias.
BAFFLE_ALWAYS_INLINE void load_panel_bias(const float* bias, std::size_t j0,
                                          std::size_t cols, f32x8& lo,
                                          f32x8& hi) {
  if (cols == kPanelCols) {
    lo = loadu8(bias + j0);
    hi = loadu8(bias + j0 + kFloatLanes);
    return;
  }
  alignas(32) float tmp[kPanelCols] = {};
  for (std::size_t c = 0; c < cols; ++c) tmp[c] = bias[j0 + c];
  lo = loada8(tmp);
  hi = loada8(tmp + kFloatLanes);
}

/// One MR x 16 register tile: MR rows of C against one packed B panel.
/// MR <= 6 keeps 2*MR accumulators + 2 panel loads + 1 broadcast within
/// the 16 ymm registers. A is addressed through the stride pair so the
/// same tile serves gemm_ab (a_p_stride=1) and gemm_atb (a_row_stride=1).
/// The epilogue adds the bias (one rounding, like the scalar arm's one
/// bias add) and applies vrelu8 (its keep-unless-negative).
template <int MR>
BAFFLE_ALWAYS_INLINE void micro_tile(const PanelGemmArgs& g,
                                     const float* panel, std::size_t i0,
                                     std::size_t j0, std::size_t cols) {
  f32x8 acc0[MR], acc1[MR];
  for (int r = 0; r < MR; ++r) {
    acc0[r] = f32x8{};
    acc1[r] = f32x8{};
  }
  const float* a0 = g.a + i0 * g.a_row_stride;
  for (std::size_t p = 0; p < g.k; ++p) {
    const f32x8 b0 = loada8(panel + p * kPanelCols);
    const f32x8 b1 = loada8(panel + p * kPanelCols + kFloatLanes);
    const float* ap = a0 + p * g.a_p_stride;
    for (int r = 0; r < MR; ++r) {
      const f32x8 av = splat8(ap[r * g.a_row_stride]);
      acc0[r] += av * b0;  // contracts to FMA under -ffp-contract=fast
      acc1[r] += av * b1;
    }
  }
  if (g.bias != nullptr) {
    f32x8 bias0, bias1;
    load_panel_bias(g.bias, j0, cols, bias0, bias1);
    for (int r = 0; r < MR; ++r) {
      acc0[r] += bias0;
      acc1[r] += bias1;
    }
  }
  if (g.relu) {
    for (int r = 0; r < MR; ++r) {
      acc0[r] = vrelu8(acc0[r]);
      acc1[r] = vrelu8(acc1[r]);
    }
  }
  if (cols == kPanelCols) {
    for (int r = 0; r < MR; ++r) {
      float* out = g.c + (i0 + r) * g.ldc + j0;
      storeu8(out, acc0[r]);
      storeu8(out + kFloatLanes, acc1[r]);
    }
  } else {
    // Tail panel: spill the registers to an aligned staging row and
    // copy only the live columns, so we never write past row end.
    alignas(32) float tmp[kPanelCols];
    for (int r = 0; r < MR; ++r) {
      *reinterpret_cast<f32x8*>(tmp) = acc0[r];
      *reinterpret_cast<f32x8*>(tmp + kFloatLanes) = acc1[r];
      float* out = g.c + (i0 + r) * g.ldc + j0;
      for (std::size_t c = 0; c < cols; ++c) out[c] = tmp[c];
    }
  }
}

/// AVX2 arm: packed panels only (gemm_reads_b_in_place is false).
void gemm_panel_rows(const PanelGemmArgs& g, std::size_t r0,
                     std::size_t r1) {
  BAFFLE_DCHECK(r0 <= r1, "kernel row range must be ordered");
  BAFFLE_DCHECK(r0 == r1 || g.c != nullptr,
                "kernel output pointer must be set for a non-empty range");
  BAFFLE_DCHECK(
      reinterpret_cast<std::uintptr_t>(g.b) % simd::kAlignment == 0 &&
          g.b_p_stride == kPanelCols && g.b_panel_stride == g.k * kPanelCols,
      "the ymm tile reads cache-line-aligned packed panels");
  const std::size_t panels = (g.n + kPanelCols - 1) / kPanelCols;
  // Panel-outer: one k x 16 panel (16 KiB at k=256) stays L1-resident
  // while every row tile in [r0, r1) streams over it.
  for (std::size_t jp = 0; jp < panels; ++jp) {
    const float* panel = g.b + jp * g.b_panel_stride;
    const std::size_t j0 = jp * kPanelCols;
    const std::size_t cols = std::min(kPanelCols, g.n - j0);
    std::size_t i = r0;
    for (; i + 6 <= r1; i += 6) micro_tile<6>(g, panel, i, j0, cols);
    switch (r1 - i) {
      case 5: micro_tile<5>(g, panel, i, j0, cols); break;
      case 4: micro_tile<4>(g, panel, i, j0, cols); break;
      case 3: micro_tile<3>(g, panel, i, j0, cols); break;
      case 2: micro_tile<2>(g, panel, i, j0, cols); break;
      case 1: micro_tile<1>(g, panel, i, j0, cols); break;
      default: break;
    }
  }
}

void axpy(float alpha, const float* x, float* y, std::size_t n) {
  const f32x8 av = splat8(alpha);
  std::size_t i = 0;
  for (; i + kFloatLanes <= n; i += kFloatLanes) {
    storeu8(y + i, loadu8(y + i) + av * loadu8(x + i));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void scale(float* x, float alpha, std::size_t n) {
  const f32x8 av = splat8(alpha);
  std::size_t i = 0;
  for (; i + kFloatLanes <= n; i += kFloatLanes) {
    storeu8(x + i, loadu8(x + i) * av);
  }
  for (; i < n; ++i) x[i] *= alpha;
}

float max_value(const float* x, std::size_t n) {
  std::size_t i = 0;
  float best = x[0];
  if (n >= kFloatLanes) {
    f32x8 acc = loadu8(x);
    for (i = kFloatLanes; i + kFloatLanes <= n; i += kFloatLanes) {
      acc = vmax8(acc, loadu8(x + i));
    }
    best = acc[0];
    for (std::size_t l = 1; l < kFloatLanes; ++l) {
      if (acc[l] > best) best = acc[l];
    }
  }
  for (; i < n; ++i) {
    if (x[i] > best) best = x[i];
  }
  return best;
}

void relu_backward(const float* activated, float* grad, std::size_t n) {
  const f32x8 zero{};
  std::size_t i = 0;
  for (; i + kFloatLanes <= n; i += kFloatLanes) {
    // keep where NOT (activated <= 0): a NaN activation keeps its
    // gradient, exactly like the scalar `if (a <= 0) g = 0`.
    const i32x8 keep = ~(loadu8(activated + i) <= zero);
    const f32x8 g = loadu8(grad + i);
    storeu8(grad + i, __builtin_bit_cast(
                          f32x8, __builtin_bit_cast(i32x8, g) & keep));
  }
  for (; i < n; ++i) {
    if (activated[i] <= 0.0f) grad[i] = 0.0f;
  }
}

void add_u64(std::uint64_t* acc, const std::uint64_t* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + simd::kU64Lanes <= n; i += simd::kU64Lanes) {
    storeu4u(acc + i, loadu4u(acc + i) + loadu4u(x + i));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

// Rng::split_mix on four lanes. util/rng.hpp is deliberately not
// included: its inline functions must not be emitted with AVX2 codegen
// into a COMDAT the linker may pick for every caller. SimdParity pins
// the lanes to the scalar arm, which calls Rng::split_mix itself.
constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

BAFFLE_ALWAYS_INLINE u64x4 split_mix4(u64x4 x) {
  x += kGoldenGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

template <bool kPlus, bool kMinus>
void pair_keystream_lanes(std::uint64_t* plus, std::uint64_t* minus,
                          std::uint64_t seed, std::size_t n) {
  u64x4 counter = {seed, seed + kGoldenGamma, seed + 2 * kGoldenGamma,
                   seed + 3 * kGoldenGamma};
  std::size_t i = 0;
  for (; i + simd::kU64Lanes <= n;
       i += simd::kU64Lanes, counter += 4 * kGoldenGamma) {
    const u64x4 m = split_mix4(counter);
    if constexpr (kPlus) storeu4u(plus + i, loadu4u(plus + i) + m);
    if constexpr (kMinus) storeu4u(minus + i, loadu4u(minus + i) - m);
  }
  if (i == n) return;
  // Tail: one more vector of keystream, applied to the live lanes only.
  const u64x4 m = split_mix4(counter);
  for (std::size_t l = 0; i + l < n; ++l) {
    if constexpr (kPlus) plus[i + l] += m[l];
    if constexpr (kMinus) minus[i + l] -= m[l];
  }
}

void pair_keystream_u64(std::uint64_t* plus, std::uint64_t* minus,
                        std::uint64_t seed, std::size_t n) {
  if (plus != nullptr && minus != nullptr) {
    pair_keystream_lanes<true, true>(plus, minus, seed, n);
  } else if (plus != nullptr) {
    pair_keystream_lanes<true, false>(plus, minus, seed, n);
  } else if (minus != nullptr) {
    pair_keystream_lanes<false, true>(plus, minus, seed, n);
  }
}

// ---- Batched multi-model evaluation (DESIGN.md §14) ----

BAFFLE_ALWAYS_INLINE f32x8 vmin8(f32x8 a, f32x8 b) {
  const i32x8 m = a < b;  // all-ones where a < b
  return __builtin_bit_cast(f32x8, (__builtin_bit_cast(i32x8, a) & m) |
                                       (__builtin_bit_cast(i32x8, b) & ~m));
}

/// Fused-layer variant of micro_tile over one packed panel: same
/// accumulation (per-p FMA into zero-initialized registers, so
/// bit-identical to gemm_panel_rows), but with the bias add and
/// optional ReLU applied while the tile is still in registers, and the
/// output written panel-packed. The bias add and vrelu8 match
/// micro_tile's epilogue, so a fused layer equals the sequential path's
/// gemm_ab_bias.
template <int MR>
BAFFLE_ALWAYS_INLINE void eval_tile_f32(const EvalLayerArgs& g,
                                        const float* in, float* out,
                                        std::size_t i0) {
  f32x8 acc0[MR], acc1[MR];
  for (int r = 0; r < MR; ++r) {
    acc0[r] = f32x8{};
    acc1[r] = f32x8{};
  }
  const float* a0 = g.a + i0 * g.a_row_stride;
  for (std::size_t p = 0; p < g.k; ++p) {
    const f32x8 b0 = loada8(in + p * kPanelCols);
    const f32x8 b1 = loada8(in + p * kPanelCols + kFloatLanes);
    const float* ap = a0 + p * g.a_p_stride;
    for (int r = 0; r < MR; ++r) {
      const f32x8 av = splat8(ap[r * g.a_row_stride]);
      acc0[r] += av * b0;  // contracts to FMA under -ffp-contract=fast
      acc1[r] += av * b1;
    }
  }
  for (int r = 0; r < MR; ++r) {
    const f32x8 bv = splat8(g.bias[i0 + r]);
    f32x8 v0 = acc0[r] + bv;
    f32x8 v1 = acc1[r] + bv;
    if (g.relu) {
      v0 = vrelu8(v0);
      v1 = vrelu8(v1);
    }
    float* row = out + (i0 + r) * kPanelCols;
    storeu8(row, v0);
    storeu8(row + kFloatLanes, v1);
  }
}

/// The ymm arm runs a panel group one panel at a time.
void eval_layer_f32(const EvalLayerArgs& g) {
  for (std::size_t q = 0; q < g.panels; ++q) {
    const float* in = g.in + q * g.k * kPanelCols;
    float* out = g.out + q * g.n_out * kPanelCols;
    std::size_t i = 0;
    for (; i + 6 <= g.n_out; i += 6) eval_tile_f32<6>(g, in, out, i);
    switch (g.n_out - i) {
      case 5: eval_tile_f32<5>(g, in, out, i); break;
      case 4: eval_tile_f32<4>(g, in, out, i); break;
      case 3: eval_tile_f32<3>(g, in, out, i); break;
      case 2: eval_tile_f32<2>(g, in, out, i); break;
      case 1: eval_tile_f32<1>(g, in, out, i); break;
      default: break;
    }
  }
}

#if defined(BAFFLE_HAVE_AVX512F_TARGET)

#define BAFFLE_TARGET_AVX512F __attribute__((target("avx512f")))

// The tiles' loops over rows and panels must unroll completely so the
// accumulators live in registers; GCC's own heuristics stop short of
// 4 x 6 and spill them to the stack.
#define BAFFLE_UNROLL _Pragma("GCC unroll 8")

// AVX-512 fused-layer tile: MR outputs x NP consecutive panels, one zmm
// accumulator per (output, panel). One zmm covers a whole 16-column
// panel row, so each k step loads NP panel rows and broadcasts MR
// weights for MR·NP FMAs — at 5 x 4, 20 FMAs from 4 loads and 5
// broadcasts (25 of the 32 zmm registers), where a one-panel tile
// spends a broadcast on every FMA.
// BIT-IDENTICAL by construction: every output element is an
// independent lane computing fma(a_p, in[p][c], acc) in the same p
// order from a zero accumulator, one post-sum bias add, and vrelu's
// exact `x < 0 ? 0 : x` semantics (the NLT mask keeps NaN/+0/-0 lanes
// like the scalar code) — neither the lane width nor which outputs and
// panels share a tile can change any per-element result, so runtime
// selection and tile shape only change speed.
template <int NP, int MR>
BAFFLE_TARGET_AVX512F BAFFLE_ALWAYS_INLINE void eval_tile_f32_zmm(
    const EvalLayerArgs& g, const float* in, float* out, std::size_t i0) {
  __m512 acc[MR][NP];
  BAFFLE_UNROLL for (int r = 0; r < MR; ++r) {
    BAFFLE_UNROLL for (int q = 0; q < NP; ++q) {
      acc[r][q] = _mm512_setzero_ps();
    }
  }
  const std::size_t in_panel = g.k * kPanelCols;
  const float* ap = g.a + i0 * g.a_row_stride;
  const float* in_row = in;
  for (std::size_t p = 0; p < g.k;
       ++p, ap += g.a_p_stride, in_row += kPanelCols) {
    __m512 bv[NP];
    BAFFLE_UNROLL for (int q = 0; q < NP; ++q) {
      bv[q] = _mm512_loadu_ps(in_row + q * in_panel);
    }
    BAFFLE_UNROLL for (int r = 0; r < MR; ++r) {
      const __m512 av = _mm512_set1_ps(ap[r * g.a_row_stride]);
      BAFFLE_UNROLL for (int q = 0; q < NP; ++q) {
        acc[r][q] = _mm512_fmadd_ps(av, bv[q], acc[r][q]);
      }
    }
  }
  const std::size_t out_panel = g.n_out * kPanelCols;
  BAFFLE_UNROLL for (int r = 0; r < MR; ++r) {
    const __m512 bias = _mm512_set1_ps(g.bias[i0 + r]);
    float* row = out + (i0 + r) * kPanelCols;
    BAFFLE_UNROLL for (int q = 0; q < NP; ++q) {
      __m512 v = _mm512_add_ps(acc[r][q], bias);
      if (g.relu) {
        const __mmask16 keep =
            _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_NLT_US);
        v = _mm512_maskz_mov_ps(keep, v);
      }
      _mm512_storeu_ps(row + q * out_panel, v);
    }
  }
}

/// Outputs [i, i + rows) of an NP-panel group for rows <= MR: the tile
/// of exactly that height (none for rows == 0).
template <int NP, int MR>
BAFFLE_TARGET_AVX512F BAFFLE_ALWAYS_INLINE void eval_row_tail_zmm(
    const EvalLayerArgs& g, const float* in, float* out, std::size_t i,
    std::size_t rows) {
  if constexpr (MR > 0) {
    if (rows == MR) {
      eval_tile_f32_zmm<NP, MR>(g, in, out, i);
    } else {
      eval_row_tail_zmm<NP, MR - 1>(g, in, out, i, rows);
    }
  }
}

/// Every output of one NP-panel group, MR at a time.
template <int NP, int MR>
BAFFLE_TARGET_AVX512F void eval_group_zmm(const EvalLayerArgs& g,
                                          const float* in, float* out) {
  std::size_t i = 0;
  for (; i + MR <= g.n_out; i += MR) eval_tile_f32_zmm<NP, MR>(g, in, out, i);
  eval_row_tail_zmm<NP, MR - 1>(g, in, out, i, g.n_out - i);
}

BAFFLE_TARGET_AVX512F void eval_layer_f32_zmm(const EvalLayerArgs& g) {
  const std::size_t in_panel = g.k * kPanelCols;
  const std::size_t out_panel = g.n_out * kPanelCols;
  std::size_t q = 0;
  for (; q + 4 <= g.panels; q += 4) {
    eval_group_zmm<4, 5>(g, g.in + q * in_panel, g.out + q * out_panel);
  }
  const float* in = g.in + q * in_panel;
  float* out = g.out + q * out_panel;
  switch (g.panels - q) {
    case 3: eval_group_zmm<3, 7>(g, in, out); break;
    case 2: eval_group_zmm<2, 8>(g, in, out); break;
    case 1: eval_group_zmm<1, 8>(g, in, out); break;
    default: break;
  }
}

// AVX-512 GEMM tile: one zmm accumulator per (row, 16-column panel),
// NP panels x MR rows per tile — 4 x 6 (24 accumulators, 4 panel-row
// loads and one broadcast per k step, within the 32 zmm registers), and
// 2 x 8 or 1 x 8 where fewer panels remain. Masked loads let it read B
// in place (the tail panel's masked-off lanes never touch memory) as
// well as from packed panels, and a masked store writes only live
// columns. BIT-IDENTICAL to the ymm tile by the same per-lane argument
// as eval_layer_f32_zmm: each output element is one lane computing
// fma(a_p, b[p][c], acc) in p order from +0, then one bias add and the
// NLT-mask ReLU — which lanes share a register cannot change any
// element's result.

template <int NP, int MR>
BAFFLE_TARGET_AVX512F BAFFLE_ALWAYS_INLINE void zmm_tile(
    const PanelGemmArgs& g, const float* b, std::size_t i0, std::size_t j0,
    __mmask16 last_mask) {
  __m512 acc[MR][NP];
  BAFFLE_UNROLL for (int r = 0; r < MR; ++r) {
    BAFFLE_UNROLL for (int q = 0; q < NP; ++q) {
      acc[r][q] = _mm512_setzero_ps();
    }
  }
  const std::size_t a_row = g.a_row_stride, a_step = g.a_p_stride;
  const std::size_t b_panel = g.b_panel_stride, b_step = g.b_p_stride;
  const float* ap = g.a + i0 * a_row;
  const float* b_row = b;
  for (std::size_t p = 0; p < g.k; ++p, ap += a_step, b_row += b_step) {
    __m512 bv[NP];
    BAFFLE_UNROLL for (int q = 0; q < NP; ++q) {
      bv[q] = _mm512_maskz_loadu_ps(q + 1 == NP ? last_mask : 0xFFFF,
                                    b_row + q * b_panel);
    }
    BAFFLE_UNROLL for (int r = 0; r < MR; ++r) {
      const __m512 av = _mm512_set1_ps(ap[r * a_row]);
      BAFFLE_UNROLL for (int q = 0; q < NP; ++q) {
        acc[r][q] = _mm512_fmadd_ps(av, bv[q], acc[r][q]);
      }
    }
  }
  __m512 bias[NP];
  BAFFLE_UNROLL for (int q = 0; q < NP; ++q) {
    bias[q] = g.bias != nullptr
                  ? _mm512_maskz_loadu_ps(q + 1 == NP ? last_mask : 0xFFFF,
                                          g.bias + j0 + q * kPanelCols)
                  : _mm512_setzero_ps();
  }
  BAFFLE_UNROLL for (int r = 0; r < MR; ++r) {
    float* out = g.c + (i0 + r) * g.ldc + j0;
    BAFFLE_UNROLL for (int q = 0; q < NP; ++q) {
      __m512 v = acc[r][q];
      if (g.bias != nullptr) v = _mm512_add_ps(v, bias[q]);
      if (g.relu) {
        const __mmask16 keep =
            _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_NLT_US);
        v = _mm512_maskz_mov_ps(keep, v);
      }
      _mm512_mask_storeu_ps(out + q * kPanelCols,
                            q + 1 == NP ? last_mask : 0xFFFF, v);
    }
  }
}

/// Rows [i, i + rows) for rows <= MR: the tile of exactly that height
/// (none for rows == 0).
template <int NP, int MR>
BAFFLE_TARGET_AVX512F BAFFLE_ALWAYS_INLINE void zmm_row_tail(
    const PanelGemmArgs& g, const float* b, std::size_t i, std::size_t j0,
    __mmask16 last_mask, std::size_t rows) {
  if constexpr (MR > 0) {
    if (rows == MR) {
      zmm_tile<NP, MR>(g, b, i, j0, last_mask);
    } else {
      zmm_row_tail<NP, MR - 1>(g, b, i, j0, last_mask, rows);
    }
  }
}

/// Panels [jp, jp + NP) for rows [r0, r1).
template <int NP, int MR>
BAFFLE_TARGET_AVX512F BAFFLE_ALWAYS_INLINE void zmm_panel_group(
    const PanelGemmArgs& g, std::size_t jp, std::size_t r0, std::size_t r1,
    __mmask16 last_mask) {
  const float* b = g.b + jp * g.b_panel_stride;
  const std::size_t j0 = jp * kPanelCols;
  std::size_t i = r0;
  for (; i + MR <= r1; i += MR) zmm_tile<NP, MR>(g, b, i, j0, last_mask);
  zmm_row_tail<NP, MR - 1>(g, b, i, j0, last_mask, r1 - i);
}

BAFFLE_TARGET_AVX512F void gemm_panel_rows_zmm(const PanelGemmArgs& g,
                                               std::size_t r0,
                                               std::size_t r1) {
  BAFFLE_DCHECK(r0 <= r1, "kernel row range must be ordered");
  BAFFLE_DCHECK(r0 == r1 || g.c != nullptr,
                "kernel output pointer must be set for a non-empty range");
  const std::size_t panels = (g.n + kPanelCols - 1) / kPanelCols;
  if (panels == 0) return;
  const std::size_t tail_cols = g.n - (panels - 1) * kPanelCols;
  const auto tail_mask = static_cast<__mmask16>((1u << tail_cols) - 1u);
  const auto mask_for = [&](std::size_t end) {
    return end == panels ? tail_mask : static_cast<__mmask16>(0xFFFF);
  };
  std::size_t jp = 0;
  for (; jp + 4 <= panels; jp += 4) {
    zmm_panel_group<4, 6>(g, jp, r0, r1, mask_for(jp + 4));
  }
  if (jp + 2 <= panels) {
    zmm_panel_group<2, 8>(g, jp, r0, r1, mask_for(jp + 2));
    jp += 2;
  }
  if (jp < panels) zmm_panel_group<1, 8>(g, jp, r0, r1, tail_mask);
}

#endif  // BAFFLE_HAVE_AVX512F_TARGET

/// Column argmax + top-2 margin over a packed panel, 16 lanes at once.
/// The strict > mask keeps the first maximum (matching the scalar arm
/// and std::max_element), and `second = max(second, min(x, best))` is
/// the branch-free form of the scalar top-2 update: every lane op is an
/// exact copy/compare, so preds and margins are bit-identical across
/// arms for finite logits.
void argmax_margin_panel(const ArgmaxMarginArgs& g) {
  f32x8 best0 = loada8(g.in);
  f32x8 best1 = loada8(g.in + kFloatLanes);
  const f32x8 ninf = splat8(-std::numeric_limits<float>::infinity());
  f32x8 sec0 = ninf, sec1 = ninf;
  i32x8 idx0{}, idx1{};
  for (std::size_t i = 1; i < g.n_rows; ++i) {
    const f32x8 x0 = loada8(g.in + i * kPanelCols);
    const f32x8 x1 = loada8(g.in + i * kPanelCols + kFloatLanes);
    const i32x8 m0 = x0 > best0;
    const i32x8 m1 = x1 > best1;
    sec0 = vmax8(sec0, vmin8(x0, best0));
    sec1 = vmax8(sec1, vmin8(x1, best1));
    best0 = __builtin_bit_cast(
        f32x8, (__builtin_bit_cast(i32x8, x0) & m0) |
                   (__builtin_bit_cast(i32x8, best0) & ~m0));
    best1 = __builtin_bit_cast(
        f32x8, (__builtin_bit_cast(i32x8, x1) & m1) |
                   (__builtin_bit_cast(i32x8, best1) & ~m1));
    const i32x8 iv = i32x8{} + static_cast<std::int32_t>(i);
    idx0 = (iv & m0) | (idx0 & ~m0);
    idx1 = (iv & m1) | (idx1 & ~m1);
  }
  alignas(32) float bests[kPanelCols];
  alignas(32) float seconds[kPanelCols];
  alignas(32) std::int32_t idxs[kPanelCols];
  *reinterpret_cast<f32x8*>(bests) = best0;
  *reinterpret_cast<f32x8*>(bests + kFloatLanes) = best1;
  *reinterpret_cast<f32x8*>(seconds) = sec0;
  *reinterpret_cast<f32x8*>(seconds + kFloatLanes) = sec1;
  *reinterpret_cast<i32x8*>(idxs) = idx0;
  *reinterpret_cast<i32x8*>(idxs + kFloatLanes) = idx1;
  for (std::size_t c = 0; c < g.cols; ++c) {
    g.preds[c] = static_cast<std::size_t>(idxs[c]);
    if (g.margins != nullptr) g.margins[c] = bests[c] - seconds[c];
  }
}

// ---- SGD step (DESIGN.md §10) ----

/// The row loop with this arm's max_value, whose NaN handling differs
/// from the scalar arm's std::max_element (a row holding a NaN comes
/// out all NaN either way).
void softmax_xent_rows(float* x, const int* labels, std::size_t rows,
                       std::size_t cols) {
  softmax_xent_row_loop(x, labels, rows, cols, max_value);
}

#if defined(BAFFLE_HAVE_AVX512F_TARGET)

// ---- libm-exact expf on 16 lanes ----
//
// A lane-for-lane copy of glibc 2.36's x86-64 expf as its IFUNC picks
// it on every CPU with AVX-512F: __expf_fma, sysdeps/ieee754/flt-32/
// e_expf.c built with FMA. With N = 32 it writes x·N/ln2 = k + r, looks
// up 2^(k/N) in a 32-entry table and evaluates a cubic in r, all in
// double, with the FMAs that build's disassembly shows:
//   kd = fma(InvLn2N, x, Shift)   ki = bits(kd)   kd -= Shift
//   r  = fma(InvLn2N, x, −kd)     s  = double(T[ki % N] + (ki << 47))
//   y  = fma(fma(r, C0, C1), r·r, fma(r, C2, 1)) · s, rounded to float.
// libm's special-case branch (|x| >= 88, ±Inf, NaN) is not copied:
// those lanes call std::exp. The copy is enabled only after
// libm_exp_copy_matches() finds it bit-identical to std::exp here.

constexpr double kExpInvLn2N = 0x1.71547652b82fep+5;
constexpr double kExpShift = 0x1.8p+52;
constexpr double kExpC0 = 0x1.c6af84b912394p-20;
constexpr double kExpC1 = 0x1.ebfce50fac4f3p-13;
constexpr double kExpC2 = 0x1.62e42ff0c52d6p-6;
/// |x| bit patterns at and above 88.0f take libm's special-case branch.
constexpr std::uint32_t kExpSlowAbsBits = 0x42b00000;
/// T[i] = bits(2^(i/32)) − (i << 47).
alignas(64) constexpr std::uint64_t kExpTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

/// expf's fast path on eight lanes widened to double.
BAFFLE_TARGET_AVX512F BAFFLE_ALWAYS_INLINE __m512d expf_fast_lanes(
    __m512d x) {
  const __m512d inv_ln2n = _mm512_set1_pd(kExpInvLn2N);
  const __m512d shift = _mm512_set1_pd(kExpShift);
  const __m512d kd_shifted = _mm512_fmadd_pd(inv_ln2n, x, shift);
  const __m512i ki = _mm512_castpd_si512(kd_shifted);
  const __m512d kd = _mm512_sub_pd(kd_shifted, shift);
  const __m512d r = _mm512_fmsub_pd(inv_ln2n, x, kd);
  // T[ki % 32]: one two-table permute per half, picked by bit 4 of ki.
  const __m512i t_lo = _mm512_permutex2var_epi64(
      _mm512_load_si512(kExpTable), ki, _mm512_load_si512(kExpTable + 8));
  const __m512i t_hi =
      _mm512_permutex2var_epi64(_mm512_load_si512(kExpTable + 16), ki,
                                _mm512_load_si512(kExpTable + 24));
  const __mmask8 upper = _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16));
  const __m512d s = _mm512_castsi512_pd(
      _mm512_add_epi64(_mm512_mask_blend_epi64(upper, t_lo, t_hi),
                       _mm512_maskz_slli_epi64(0xFF, ki, 47)));
  const __m512d z =
      _mm512_fmadd_pd(r, _mm512_set1_pd(kExpC0), _mm512_set1_pd(kExpC1));
  const __m512d r2 = _mm512_mul_pd(r, r);
  __m512d y = _mm512_fmadd_pd(r, _mm512_set1_pd(kExpC2), _mm512_set1_pd(1.0));
  y = _mm512_fmadd_pd(z, r2, y);
  return _mm512_mul_pd(y, s);
}

/// std::exp on the `slow` lanes of x, the copy's results elsewhere.
[[gnu::noinline, gnu::cold]] BAFFLE_TARGET_AVX512F __m512 expf_slow_lanes(
    __m512 x, __m512 fast, __mmask16 slow) {
  alignas(64) float in[16], out[16];
  _mm512_store_ps(in, x);
  _mm512_store_ps(out, fast);
  for (int l = 0; l < 16; ++l) {
    if ((slow >> l) & 1u) out[l] = std::exp(in[l]);
  }
  return _mm512_load_ps(out);
}

/// Eight float lanes of x widened to double: the low half, or the high.
template <int kHalf>
BAFFLE_TARGET_AVX512F BAFFLE_ALWAYS_INLINE __m512d widen_half(__m512 x) {
  return _mm512_maskz_cvtps_pd(
      0xFF, _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(
                0xF, _mm512_castps_pd(x), kHalf)));
}

/// std::exp on 16 lanes, bit for bit. (The masked forms of the
/// conversions, shift and insert avoid GCC 12's unmasked intrinsics,
/// whose self-initialized pass-through operand trips
/// -Wmaybe-uninitialized.)
BAFFLE_TARGET_AVX512F BAFFLE_ALWAYS_INLINE __m512 expf_lanes(__m512 x) {
  const __m256 y_lo =
      _mm512_maskz_cvtpd_ps(0xFF, expf_fast_lanes(widen_half<0>(x)));
  const __m256 y_hi =
      _mm512_maskz_cvtpd_ps(0xFF, expf_fast_lanes(widen_half<1>(x)));
  const __m512 y = _mm512_castpd_ps(_mm512_maskz_insertf64x4(
      0xFF, _mm512_castpd256_pd512(_mm256_castps_pd(y_lo)),
      _mm256_castps_pd(y_hi), 1));
  const __mmask16 slow = _mm512_cmpge_epu32_mask(
      _mm512_and_si512(_mm512_castps_si512(x), _mm512_set1_epi32(0x7fffffff)),
      _mm512_set1_epi32(static_cast<int>(kExpSlowAbsBits)));
  return slow == 0 ? y : expf_slow_lanes(x, y, slow);
}

BAFFLE_TARGET_AVX512F BAFFLE_ALWAYS_INLINE __mmask16 lanes_below(
    std::size_t n) {
  return n >= 16 ? static_cast<__mmask16>(0xFFFF)
                 : static_cast<__mmask16>((1u << n) - 1u);
}

BAFFLE_TARGET_AVX512F void exp_f32_zmm(float* out, const float* x,
                                       std::size_t n) {
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 live = lanes_below(n - i);
    _mm512_mask_storeu_ps(out + i, live,
                          expf_lanes(_mm512_maskz_loadu_ps(live, x + i)));
  }
}

/// Dispatch-time probe: a strided sample of the copy's fast path (every
/// 131071st of the 2,237,661,184 patterns with |x| < 88; the stride is
/// prime, so the sample walks all low-mantissa residues) must give
/// std::exp's bits. tools/exp_sweep checks all 2^32 patterns.
BAFFLE_TARGET_AVX512F bool libm_exp_copy_matches() {
  constexpr std::uint64_t kFastPatterns = 2ull * kExpSlowAbsBits;
  constexpr std::uint64_t kStride = 131071;
  float in[16] = {};
  float got[16];
  for (std::uint64_t i = 0; i < kFastPatterns;) {
    std::size_t lanes = 0;
    for (; lanes < 16 && i < kFastPatterns; ++lanes, i += kStride) {
      // The positive magnitudes, then the same ones negated.
      const auto bits = static_cast<std::uint32_t>(
          i < kExpSlowAbsBits ? i : (i - kExpSlowAbsBits) | 0x80000000u);
      std::memcpy(&in[lanes], &bits, sizeof(bits));
    }
    exp_f32_zmm(got, in, lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      const float want = std::exp(in[l]);
      if (std::memcmp(&want, &got[l], sizeof(want)) != 0) return false;
    }
  }
  return true;
}

/// NaN anywhere in x[0, n).
BAFFLE_TARGET_AVX512F bool any_nan(const float* x, std::size_t n) {
  __mmask16 nan = 0;
  for (std::size_t i = 0; i < n; i += 16) {
    const __m512 v = _mm512_maskz_loadu_ps(lanes_below(n - i), x + i);
    nan |= _mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q);
  }
  return nan != 0;
}

/// Columns the whole-batch softmax stages on the stack, 16 rows each
/// (16 KiB); wider batches run the row loop.
constexpr std::size_t kSoftmaxMaxCols = 256;

/// The whole batch with rows in lanes, 16 rows at a time: each block's
/// columns are gathered once into a stack buffer, where each lane runs
/// the row loop's arithmetic over its row's columns in the same order —
/// max, exp and sum, divide by the sum, divide by the batch, subtract
/// 1/batch at the label — before one scatter per column writes
/// the gradient back. Without NaN the max does not depend on how it is
/// folded (signed zeros leave x − max unchanged for exp), so every byte
/// matches the row loop; a batch holding a NaN runs the row loop. A
/// power-of-two batch multiplies by its reciprocal instead of dividing:
/// both round the same real quotient once, so the bytes are the same.
BAFFLE_TARGET_AVX512F void softmax_xent_rows_zmm(float* x, const int* labels,
                                                 std::size_t rows,
                                                 std::size_t cols) {
  if (cols > kSoftmaxMaxCols || any_nan(x, rows * cols)) {
    softmax_xent_row_loop(x, labels, rows, cols, max_value);
    return;
  }
  const __m512 batch = _mm512_set1_ps(static_cast<float>(rows));
  const __m512 inv_batch = _mm512_set1_ps(1.0f / static_cast<float>(rows));
  const bool pow2 = (rows & (rows - 1)) == 0;
  const __m512i row_offsets = _mm512_mullo_epi32(
      _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
      _mm512_set1_epi32(static_cast<int>(cols)));
  alignas(64) float column[kSoftmaxMaxCols][16];
  for (std::size_t r0 = 0; r0 < rows; r0 += 16) {
    const __mmask16 live = lanes_below(rows - r0);
    float* block = x + r0 * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      _mm512_store_ps(column[c], _mm512_mask_i32gather_ps(
                                     _mm512_setzero_ps(), live, row_offsets,
                                     block + c, 4));
    }
    __m512 mx = _mm512_load_ps(column[0]);
    for (std::size_t c = 1; c < cols; ++c) {
      mx = _mm512_mask_max_ps(mx, live, mx, _mm512_load_ps(column[c]));
    }
    __m512 total = _mm512_setzero_ps();
    for (std::size_t c = 0; c < cols; ++c) {
      const __m512 e =
          expf_lanes(_mm512_sub_ps(_mm512_load_ps(column[c]), mx));
      total = _mm512_add_ps(total, e);
      _mm512_store_ps(column[c], e);
    }
    const __m512i label = _mm512_maskz_loadu_epi32(live, labels + r0);
    for (std::size_t c = 0; c < cols; ++c) {
      const __mmask16 at_label = _mm512_mask_cmpeq_epi32_mask(
          live, label, _mm512_set1_epi32(static_cast<int>(c)));
      const __m512 p = _mm512_div_ps(_mm512_load_ps(column[c]), total);
      __m512 g = pow2 ? _mm512_maskz_mul_ps(0xFFFF, p, inv_batch)
                      : _mm512_div_ps(p, batch);
      g = _mm512_mask_sub_ps(g, at_label, g, inv_batch);
      _mm512_mask_i32scatter_ps(block + c, live, row_offsets, g, 4);
    }
  }
}

#define BAFFLE_UNROLL_PANEL _Pragma("GCC unroll 16")

/// Rows r[0..16) of a 16 x 16 block become its columns: afterwards r[c]
/// holds what column c held. Four rounds of 16 shuffles that move whole
/// 32-bit lanes (pairs within 128-bit lanes, then quads, then 128-bit
/// lanes twice), so every float keeps its bits. The masked forms avoid
/// GCC 12's unmasked intrinsics, as expf_lanes' do.
BAFFLE_TARGET_AVX512F BAFFLE_ALWAYS_INLINE void transpose_16x16(
    __m512 r[16]) {
  __m512 t[16];
  BAFFLE_UNROLL_PANEL for (int i = 0; i < 16; i += 2) {
    t[i] = _mm512_maskz_unpacklo_ps(0xFFFF, r[i], r[i + 1]);
    t[i + 1] = _mm512_maskz_unpackhi_ps(0xFFFF, r[i], r[i + 1]);
  }
  BAFFLE_UNROLL_PANEL for (int i = 0; i < 16; i += 4) {
    for (int h = 0; h < 2; ++h) {
      const __m512d a = _mm512_castps_pd(t[i + h]);
      const __m512d b = _mm512_castps_pd(t[i + h + 2]);
      r[i + 2 * h] = _mm512_castpd_ps(_mm512_maskz_unpacklo_pd(0xFF, a, b));
      r[i + 2 * h + 1] =
          _mm512_castpd_ps(_mm512_maskz_unpackhi_pd(0xFF, a, b));
    }
  }
  // r[4g + m] now holds, in 128-bit lane k, rows 4g..4g+3 of column
  // 4k + m: gather lane k of r[m], r[4 + m], r[8 + m] and r[12 + m].
  BAFFLE_UNROLL_PANEL for (int m = 0; m < 4; ++m) {
    const __m512 lo01 =
        _mm512_maskz_shuffle_f32x4(0xFFFF, r[m], r[4 + m], 0x44);
    const __m512 hi01 =
        _mm512_maskz_shuffle_f32x4(0xFFFF, r[m], r[4 + m], 0xEE);
    const __m512 lo23 =
        _mm512_maskz_shuffle_f32x4(0xFFFF, r[8 + m], r[12 + m], 0x44);
    const __m512 hi23 =
        _mm512_maskz_shuffle_f32x4(0xFFFF, r[8 + m], r[12 + m], 0xEE);
    t[m] = _mm512_maskz_shuffle_f32x4(0xFFFF, lo01, lo23, 0x88);
    t[4 + m] = _mm512_maskz_shuffle_f32x4(0xFFFF, lo01, lo23, 0xDD);
    t[8 + m] = _mm512_maskz_shuffle_f32x4(0xFFFF, hi01, hi23, 0x88);
    t[12 + m] = _mm512_maskz_shuffle_f32x4(0xFFFF, hi01, hi23, 0xDD);
  }
  BAFFLE_UNROLL_PANEL for (int i = 0; i < 16; ++i) r[i] = t[i];
}

/// 16 x 16 blocks through registers: a block's rows are loaded masked to
/// its columns (rows past the last are +0), transposed, and its columns
/// stored masked to its rows.
BAFFLE_TARGET_AVX512F void transpose_zmm(const float* src, std::size_t rows,
                                         std::size_t cols, std::size_t lds,
                                         float* dst, std::size_t ldd) {
  for (std::size_t r0 = 0; r0 < rows; r0 += 16) {
    const std::size_t nr = std::min<std::size_t>(16, rows - r0);
    const __mmask16 row_lanes = lanes_below(nr);
    for (std::size_t c0 = 0; c0 < cols; c0 += 16) {
      const std::size_t nc = std::min<std::size_t>(16, cols - c0);
      const __mmask16 col_lanes = lanes_below(nc);
      const float* in = src + r0 * lds + c0;
      __m512 v[16];
      BAFFLE_UNROLL_PANEL for (std::size_t r = 0; r < 16; ++r) {
        v[r] = r < nr ? _mm512_maskz_loadu_ps(col_lanes, in + r * lds)
                      : _mm512_setzero_ps();
      }
      transpose_16x16(v);
      float* out = dst + c0 * ldd + r0;
      BAFFLE_UNROLL_PANEL for (std::size_t c = 0; c < 16; ++c) {
        if (c < nc) _mm512_mask_storeu_ps(out + c * ldd, row_lanes, v[c]);
      }
    }
  }
}

/// The class-major softmax with samples in lanes, 16 per block, every
/// load and store contiguous: lane l of class c's vector is sample
/// i0 + l's logit, x + bias[c]. Each lane runs the row loop's
/// arithmetic over its sample's classes in class order (max, exp and
/// sum, divide by the sum, divide by the batch, subtract 1/batch at the
/// label, multiplying by the reciprocal of a power-of-two batch as
/// softmax_xent_rows_zmm does); without NaN the max is the same however
/// it is folded, so every byte matches the row loop. A block holding a
/// NaN runs the scalar arm's loop, the ymm table's entry. The block's
/// gradient, transposed in registers, then folds into bias_grad one
/// sample at a time, as the loop adds it.
BAFFLE_TARGET_AVX512F void softmax_xent_class_major_zmm(
    float* x, const float* bias, const int* labels, std::size_t classes,
    std::size_t batch, float* bias_grad) {
  BAFFLE_DCHECK(classes <= kPanelCols, "class-major softmax stages a panel");
  const __m512 batch_v = _mm512_set1_ps(static_cast<float>(batch));
  const __m512 inv_batch = _mm512_set1_ps(1.0f / static_cast<float>(batch));
  const __mmask16 class_lanes = lanes_below(classes);
  const bool pow2 = (batch & (batch - 1)) == 0;
  std::fill_n(bias_grad, classes, 0.0f);
  alignas(64) float grad[kPanelCols][16];
  for (std::size_t i0 = 0; i0 < batch; i0 += 16) {
    const std::size_t n = std::min<std::size_t>(16, batch - i0);
    const __mmask16 live = lanes_below(n);
    float* block = x + i0;
    __m512 mx = _mm512_set1_ps(-std::numeric_limits<float>::infinity());
    __mmask16 nan = 0;
    for (std::size_t c = 0; c < classes; ++c) {
      const __m512 z =
          _mm512_add_ps(_mm512_maskz_loadu_ps(live, block + c * batch),
                        _mm512_set1_ps(bias[c]));
      nan |= _mm512_mask_cmp_ps_mask(live, z, z, _CMP_UNORD_Q);
      mx = _mm512_maskz_max_ps(0xFFFF, mx, z);
      _mm512_store_ps(grad[c], z);
    }
    if (nan != 0) {
      softmax_xent_class_major_loop(x, bias, labels, classes, batch, i0,
                                    i0 + n, bias_grad,
                                    scalar_table().max_value);
      continue;
    }
    __m512 total = _mm512_setzero_ps();
    for (std::size_t c = 0; c < classes; ++c) {
      const __m512 e = expf_lanes(_mm512_sub_ps(_mm512_load_ps(grad[c]), mx));
      total = _mm512_add_ps(total, e);
      _mm512_store_ps(grad[c], e);
    }
    const __m512i label = _mm512_maskz_loadu_epi32(live, labels + i0);
    __m512 block_grad[16];
    BAFFLE_UNROLL_PANEL for (std::size_t c = 0; c < kPanelCols; ++c) {
      if (c >= classes) {
        block_grad[c] = _mm512_setzero_ps();
        continue;
      }
      const __mmask16 at_label = _mm512_mask_cmpeq_epi32_mask(
          live, label, _mm512_set1_epi32(static_cast<int>(c)));
      const __m512 p = _mm512_div_ps(_mm512_load_ps(grad[c]), total);
      __m512 g = pow2 ? _mm512_maskz_mul_ps(0xFFFF, p, inv_batch)
                      : _mm512_div_ps(p, batch_v);
      g = _mm512_mask_sub_ps(g, at_label, g, inv_batch);
      _mm512_mask_storeu_ps(block + c * batch, live, g);
      block_grad[c] = g;
    }
    transpose_16x16(block_grad);  // now one vector per sample
    __m512 sum = _mm512_maskz_loadu_ps(class_lanes, bias_grad);
    for (std::size_t l = 0; l < n; ++l) {
      sum = _mm512_add_ps(sum, block_grad[l]);
    }
    _mm512_mask_storeu_ps(bias_grad, class_lanes, sum);
  }
}

// ---- The SGD step's glue on 16 lanes ----
//
// Copies, compares and one rounding per operation, each lane doing what
// the scalar loop does to its element, so all three give the scalar
// arm's bytes. The ReLU mask and the update run whole vectors unmasked,
// then one masked tail: a loop that masks every step, as exp_f32_zmm
// does, timed 15-35% slower on the vision model's layers.

/// The ReLU mask: keep the gradient where NOT (a <= 0), so a NaN
/// activation keeps it and −0 loses it; +0 elsewhere.
BAFFLE_TARGET_AVX512F void relu_backward_zmm(const float* activated,
                                             float* grad, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __mmask16 keep = _mm512_cmp_ps_mask(
        _mm512_loadu_ps(activated + i), _mm512_setzero_ps(), _CMP_NLE_UQ);
    _mm512_storeu_ps(grad + i,
                     _mm512_maskz_mov_ps(keep, _mm512_loadu_ps(grad + i)));
  }
  if (i == n) return;
  const __mmask16 live = lanes_below(n - i);
  const __mmask16 dead = _mm512_mask_cmp_ps_mask(
      live, _mm512_maskz_loadu_ps(live, activated + i), _mm512_setzero_ps(),
      _CMP_LE_OQ);
  _mm512_mask_storeu_ps(grad + i, dead, _mm512_setzero_ps());
}

/// Columns [c0, c0 + 16·NV) of col_sum, the last vector's live lanes in
/// `last`: one accumulator per column vector, each lane folding its
/// column over the rows in order from +0.
template <int NV>
BAFFLE_TARGET_AVX512F BAFFLE_ALWAYS_INLINE void col_sum_group_zmm(
    const float* m, std::size_t rows, std::size_t cols, std::size_t c0,
    __mmask16 last, float* out) {
  __m512 acc[NV];
  BAFFLE_UNROLL for (int v = 0; v < NV; ++v) acc[v] = _mm512_setzero_ps();
  const float* row = m + c0;
  for (std::size_t r = 0; r < rows; ++r, row += cols) {
    BAFFLE_UNROLL for (int v = 0; v < NV; ++v) {
      const __m512 x = v + 1 == NV ? _mm512_maskz_loadu_ps(last, row + 16 * v)
                                   : _mm512_loadu_ps(row + 16 * v);
      acc[v] = _mm512_add_ps(acc[v], x);
    }
  }
  BAFFLE_UNROLL for (int v = 0; v < NV; ++v) {
    _mm512_mask_storeu_ps(out + c0 + 16 * v, v + 1 == NV ? last : 0xFFFF,
                          acc[v]);
  }
}

/// Four column vectors per pass over the rows, so their folds overlap;
/// the last pass takes the one to four that are left.
BAFFLE_TARGET_AVX512F void col_sum_zmm(const float* m, std::size_t rows,
                                       std::size_t cols, float* out) {
  std::size_t c0 = 0;
  for (; cols - c0 > 64; c0 += 64) {
    col_sum_group_zmm<4>(m, rows, cols, c0, 0xFFFF, out);
  }
  const std::size_t left = cols - c0;
  if (left == 0) return;
  const __mmask16 last = lanes_below(left - (left - 1) / 16 * 16);
  switch ((left + 15) / 16) {
    case 4: col_sum_group_zmm<4>(m, rows, cols, c0, last, out); break;
    case 3: col_sum_group_zmm<3>(m, rows, cols, c0, last, out); break;
    case 2: col_sum_group_zmm<2>(m, rows, cols, c0, last, out); break;
    case 1: col_sum_group_zmm<1>(m, rows, cols, c0, last, out); break;
    default: break;
  }
}

/// w + round(−lr · g) in the explicit-rounding forms, which
/// -ffp-contract=fast leaves apart (plain _mm512_mul_ps and
/// _mm512_add_ps would contract into one FMA).
BAFFLE_TARGET_AVX512F void sgd_update_zmm(float* w, const float* g, float lr,
                                          std::size_t n) {
  constexpr int kRound = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
  const __m512 neg_lr = _mm512_set1_ps(-lr);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 step = _mm512_maskz_mul_round_ps(
        0xFFFF, neg_lr, _mm512_loadu_ps(g + i), kRound);
    _mm512_storeu_ps(w + i, _mm512_maskz_add_round_ps(
                                0xFFFF, _mm512_loadu_ps(w + i), step, kRound));
  }
  if (i == n) return;
  const __mmask16 live = lanes_below(n - i);
  const __m512 step = _mm512_maskz_mul_round_ps(
      live, neg_lr, _mm512_maskz_loadu_ps(live, g + i), kRound);
  _mm512_mask_storeu_ps(
      w + i, live,
      _mm512_maskz_add_round_ps(live, _mm512_maskz_loadu_ps(live, w + i),
                                step, kRound));
}

// ---- Secure-aggregation masking on eight u64 lanes ----
//
// AVX-512DQ multiplies 64-bit lanes in one instruction (vpmullq, where
// AVX-512F alone builds the product from 32-bit halves) and truncates
// doubles to int64 (vcvttpd2qq). Integer lanes are exact and the encode
// runs the scalar arm's double operations in its order, so both entries
// give the scalar arm's words. The shifts use their masked forms for
// the reason expf_lanes gives.

#define BAFFLE_TARGET_AVX512DQ __attribute__((target("avx512f,avx512dq")))

BAFFLE_TARGET_AVX512DQ BAFFLE_ALWAYS_INLINE __m512i set1_u64(
    std::uint64_t x) {
  return _mm512_set1_epi64(static_cast<long long>(x));
}

/// Rng::split_mix on eight lanes.
BAFFLE_TARGET_AVX512DQ BAFFLE_ALWAYS_INLINE __m512i split_mix8(__m512i x) {
  x = _mm512_add_epi64(x, set1_u64(kGoldenGamma));
  x = _mm512_mullo_epi64(
      _mm512_xor_si512(x, _mm512_maskz_srli_epi64(0xFF, x, 30)),
      set1_u64(0xbf58476d1ce4e5b9ULL));
  x = _mm512_mullo_epi64(
      _mm512_xor_si512(x, _mm512_maskz_srli_epi64(0xFF, x, 27)),
      set1_u64(0x94d049bb133111ebULL));
  return _mm512_xor_si512(x, _mm512_maskz_srli_epi64(0xFF, x, 31));
}

BAFFLE_TARGET_AVX512DQ BAFFLE_ALWAYS_INLINE __mmask8 lanes_below8(
    std::size_t n) {
  return n >= 8 ? static_cast<__mmask8>(0xFF)
                : static_cast<__mmask8>((1u << n) - 1u);
}

template <bool kPlus, bool kMinus>
BAFFLE_TARGET_AVX512DQ void pair_keystream_zmm_lanes(std::uint64_t* plus,
                                                     std::uint64_t* minus,
                                                     std::uint64_t seed,
                                                     std::size_t n) {
  __m512i counter = _mm512_add_epi64(
      set1_u64(seed),
      _mm512_mullo_epi64(_mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
                         set1_u64(kGoldenGamma)));
  const __m512i step = set1_u64(8 * kGoldenGamma);
  std::size_t i = 0;
  // Plain loads and stores: masked ones cost a third more here.
  for (; i + 8 <= n; i += 8, counter = _mm512_add_epi64(counter, step)) {
    const __m512i m = split_mix8(counter);
    if constexpr (kPlus) {
      _mm512_storeu_si512(plus + i,
                          _mm512_add_epi64(_mm512_loadu_si512(plus + i), m));
    }
    if constexpr (kMinus) {
      _mm512_storeu_si512(minus + i,
                          _mm512_sub_epi64(_mm512_loadu_si512(minus + i), m));
    }
  }
  if (i == n) return;
  const __mmask8 live = lanes_below8(n - i);
  const __m512i m = split_mix8(counter);
  if constexpr (kPlus) {
    _mm512_mask_storeu_epi64(
        plus + i, live,
        _mm512_add_epi64(_mm512_maskz_loadu_epi64(live, plus + i), m));
  }
  if constexpr (kMinus) {
    _mm512_mask_storeu_epi64(
        minus + i, live,
        _mm512_sub_epi64(_mm512_maskz_loadu_epi64(live, minus + i), m));
  }
}

BAFFLE_TARGET_AVX512DQ void pair_keystream_u64_zmm(std::uint64_t* plus,
                                                   std::uint64_t* minus,
                                                   std::uint64_t seed,
                                                   std::size_t n) {
  if (plus != nullptr && minus != nullptr) {
    pair_keystream_zmm_lanes<true, true>(plus, minus, seed, n);
  } else if (plus != nullptr) {
    pair_keystream_zmm_lanes<true, false>(plus, minus, seed, n);
  } else if (minus != nullptr) {
    pair_keystream_zmm_lanes<false, true>(plus, minus, seed, n);
  }
}

/// The scalar encode on eight lanes: scale in double, compare the
/// magnitude with 2^63 (NaN compares false), add ±0.5 with the value's
/// sign and truncate. Lanes before the first out-of-domain one are
/// stored.
BAFFLE_TARGET_AVX512DQ std::size_t encode_fixed_u64_zmm(const float* x,
                                                        unsigned frac_bits,
                                                        std::uint64_t* out,
                                                        std::size_t n) {
  const __m512d unit =
      _mm512_set1_pd(std::ldexp(1.0, static_cast<int>(frac_bits)));
  const __m512d limit = _mm512_set1_pd(9223372036854775808.0);
  const __m512d sign = _mm512_castsi512_pd(set1_u64(1ULL << 63));
  const __m512d half = _mm512_set1_pd(0.5);
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 live = lanes_below8(n - i);
    const __m512d scaled = _mm512_mul_pd(
        widen_half<0>(_mm512_maskz_loadu_ps(live, x + i)), unit);
    const __mmask8 in_domain =
        _mm512_cmp_pd_mask(_mm512_abs_pd(scaled), limit, _CMP_LT_OQ);
    const __m512d rounded = _mm512_add_pd(
        scaled, _mm512_or_pd(_mm512_and_pd(scaled, sign), half));
    const __m512i words = _mm512_maskz_cvttpd_epi64(0xFF, rounded);
    const auto bad = static_cast<unsigned>(live & ~in_domain);
    if (bad != 0) {
      const unsigned first = static_cast<unsigned>(__builtin_ctz(bad));
      _mm512_mask_storeu_epi64(
          out + i, static_cast<__mmask8>((1u << first) - 1u), words);
      return i + first;
    }
    _mm512_mask_storeu_epi64(out + i, live, words);
  }
  return n;
}

// ---- Rng's engine on eight u64 lanes ----
//
// The twist and the tempering are exact integer arithmetic. The polar
// step converts words to doubles (vcvtuqq2pd, correctly rounded like
// the scalar cast) and scales, clamps and doubles them exactly; its one
// rounding that could differ is r2 = x·x + y·y, which must round each
// product before the add as libstdc++'s loop does in a TU without FMA.
// This TU builds with -ffp-contract=fast, under which _mm512_mul_pd and
// _mm512_add_pd contract into an FMA, so r2 takes the explicit-rounding
// forms, which GCC leaves apart.

/// The scalar arm's twist of word k, for the eight words the vector
/// loops leave.
void mt_twist_word(std::uint64_t* x, std::size_t k) {
  const std::uint64_t y = (x[k] & kMtUpperMask) |
                          (x[(k + 1) % kMtWords] & ~kMtUpperMask);
  x[k] = x[(k + kMtMiddle) % kMtWords] ^ (y >> 1) ^
         ((y & 1) != 0 ? kMtMatrixA : 0);
}

/// Twists words [k, k + 8), reading word (k + m) mod n of each lane at
/// `far`.
BAFFLE_TARGET_AVX512DQ BAFFLE_ALWAYS_INLINE void mt_twist8(
    std::uint64_t* x, std::size_t k, const std::uint64_t* far) {
  const __m512i upper = set1_u64(kMtUpperMask);
  const __m512i y = _mm512_or_si512(
      _mm512_and_si512(_mm512_loadu_si512(x + k), upper),
      _mm512_maskz_andnot_epi64(0xFF, upper, _mm512_loadu_si512(x + k + 1)));
  const __m512i odd = _mm512_maskz_mov_epi64(
      _mm512_test_epi64_mask(y, set1_u64(1)), set1_u64(kMtMatrixA));
  const __m512i shifted = _mm512_maskz_srli_epi64(0xFF, y, 1);
  _mm512_storeu_si512(
      x + k, _mm512_xor_si512(
                 _mm512_xor_si512(_mm512_loadu_si512(far), shifted), odd));
}

/// The scalar arm's twist, eight words at a time: words [0, n - m) read
/// words k + m not yet updated, words [n - m, n - 1) read words k + m - n
/// already updated, and neither reads a word its own vector writes.
BAFFLE_TARGET_AVX512DQ void mt_regenerate_zmm(std::uint64_t* x) {
  std::size_t k = 0;
  for (; k + 8 <= kMtWords - kMtMiddle; k += 8) {
    mt_twist8(x, k, x + k + kMtMiddle);
  }
  for (; k < kMtWords - kMtMiddle; ++k) mt_twist_word(x, k);
  for (; k + 8 <= kMtWords - 1; k += 8) {
    mt_twist8(x, k, x + k + kMtMiddle - kMtWords);
  }
  for (; k < kMtWords; ++k) mt_twist_word(x, k);
}

/// Rng::temper on eight lanes.
BAFFLE_TARGET_AVX512DQ BAFFLE_ALWAYS_INLINE __m512i temper8(__m512i z) {
  z = _mm512_xor_si512(z, _mm512_and_si512(_mm512_maskz_srli_epi64(0xFF, z, 29),
                                           set1_u64(kMtTemperD)));
  z = _mm512_xor_si512(z, _mm512_and_si512(_mm512_maskz_slli_epi64(0xFF, z, 17),
                                           set1_u64(kMtTemperB)));
  z = _mm512_xor_si512(z, _mm512_and_si512(_mm512_maskz_slli_epi64(0xFF, z, 37),
                                           set1_u64(kMtTemperC)));
  return _mm512_xor_si512(z, _mm512_maskz_srli_epi64(0xFF, z, 43));
}

/// The scalar arm's polar_coordinate on eight raw words: temper, the
/// canonical min(double(word) · 2^-64, 1 - 2^-53), then 2u - 1.
BAFFLE_TARGET_AVX512DQ BAFFLE_ALWAYS_INLINE __m512d polar_coordinate8(
    __m512i raw) {
  const __m512d u = _mm512_maskz_min_pd(
      0xFF,
      _mm512_mul_pd(_mm512_maskz_cvtepu64_pd(0xFF, temper8(raw)),
                    _mm512_set1_pd(0x1p-64)),
      _mm512_set1_pd(1.0 - 0x1p-53));
  return _mm512_sub_pd(_mm512_add_pd(u, u), _mm512_set1_pd(1.0));
}

/// Eight pairs per step: the even and odd words of sixteen become x and
/// y, and the accepted lanes' y and r2 are compressed into place in
/// pair order. The step that reaches `want` keeps the first accepted
/// lanes it needs and counts the pairs up to the last one kept.
BAFFLE_TARGET_AVX512DQ std::size_t polar_pairs_zmm(const PolarPairsArgs& g,
                                                   std::size_t* pairs_read) {
  const __m512i even = _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0);
  const __m512i odd = _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1);
  constexpr int kRound = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
  std::size_t accepted = 0;
  std::size_t i = 0;
  while (i < g.pairs && accepted < g.want) {
    const std::size_t live = std::min<std::size_t>(g.pairs - i, 8);
    const std::uint64_t* w = g.words + 2 * i;
    const __m512i lo = _mm512_maskz_loadu_epi64(lanes_below8(2 * live), w);
    const __m512i hi =
        live > 4 ? _mm512_maskz_loadu_epi64(lanes_below8(2 * live - 8), w + 8)
                 : _mm512_setzero_si512();
    const __m512d x =
        polar_coordinate8(_mm512_permutex2var_epi64(lo, even, hi));
    const __m512d y =
        polar_coordinate8(_mm512_permutex2var_epi64(lo, odd, hi));
    const __m512d r2 = _mm512_maskz_add_round_pd(
        0xFF, _mm512_maskz_mul_round_pd(0xFF, x, x, kRound),
        _mm512_maskz_mul_round_pd(0xFF, y, y, kRound), kRound);
    unsigned keep = _mm512_cmp_pd_mask(r2, _mm512_set1_pd(1.0), _CMP_LE_OQ) &
                    _mm512_cmp_pd_mask(r2, _mm512_setzero_pd(), _CMP_NEQ_OQ) &
                    lanes_below8(live);
    std::size_t step = live;
    std::size_t kept = static_cast<std::size_t>(__builtin_popcount(keep));
    if (kept >= g.want - accepted) {
      unsigned extra = keep;  // clear the lowest want - accepted lanes
      for (std::size_t j = accepted; j < g.want; ++j) extra &= extra - 1;
      keep ^= extra;
      kept = g.want - accepted;
      step = static_cast<std::size_t>(32 - __builtin_clz(keep));
    }
    const auto lanes = static_cast<__mmask8>(keep);
    const __mmask8 out = lanes_below8(kept);
    _mm512_mask_storeu_pd(g.y + accepted, out,
                          _mm512_maskz_compress_pd(lanes, y));
    _mm512_mask_storeu_pd(g.r2 + accepted, out,
                          _mm512_maskz_compress_pd(lanes, r2));
    accepted += kept;
    i += step;
  }
  *pairs_read = i;
  return accepted;
}

#endif  // BAFFLE_HAVE_AVX512F_TARGET

/// The vector table; `avx512f` swaps in the zmm fp32 kernels (the GEMM
/// tile, the fused eval layer and the SGD step's transpose, ReLU mask,
/// column sums and update), which leave every result unchanged, and —
/// once its probe passes — the libm-exact exp with the two softmax
/// entries built on it; `avx512f` with `avx512dq` swaps in the zmm
/// masking entries and Rng's twist and polar step.
KernelTable make_table(bool avx512f, bool avx512dq) {
  KernelTable t = scalar_table();
  t.name = "avx2";
  t.gemm_width = "avx2";
  t.gemm_reads_b_in_place = false;
  // scalar-inherited unless a zmm entry replaces them: transpose, col_sum
  // and sgd_update, whose -O3 loops vectorize in the scalar TU, exp_f32,
  // the class-major softmax (at most 16 classes a sample),
  // encode_fixed_u64, mt_regenerate and polar_pairs.
  t.gemm_panel_rows = gemm_panel_rows;
  t.axpy = axpy;
  t.scale = scale;
  t.max_value = max_value;
  t.relu_backward = relu_backward;
  t.add_u64 = add_u64;
  t.pair_keystream_u64 = pair_keystream_u64;
  t.eval_layer_f32 = eval_layer_f32;
  t.softmax_xent_rows = softmax_xent_rows;
#if defined(BAFFLE_HAVE_AVX512F_TARGET)
  if (avx512f) {
    t.gemm_width = "avx512f";
    t.gemm_reads_b_in_place = true;
    t.gemm_panel_rows = gemm_panel_rows_zmm;
    t.transpose = transpose_zmm;
    t.eval_layer_f32 = eval_layer_f32_zmm;
    t.relu_backward = relu_backward_zmm;
    t.col_sum = col_sum_zmm;
    t.sgd_update = sgd_update_zmm;
    if (libm_exp_copy_matches()) {
      t.libm_exp_copy = true;
      t.exp_f32 = exp_f32_zmm;
      t.softmax_xent_rows = softmax_xent_rows_zmm;
      t.softmax_xent_class_major = softmax_xent_class_major_zmm;
    }
    if (avx512dq) {
      t.pair_keystream_u64 = pair_keystream_u64_zmm;
      t.encode_fixed_u64 = encode_fixed_u64_zmm;
      t.mt_regenerate = mt_regenerate_zmm;
      t.polar_pairs = polar_pairs_zmm;
    }
  }
#else
  (void)avx512f;
  (void)avx512dq;
#endif
  t.argmax_margin_panel = argmax_margin_panel;
  return t;
}

// CPUID checks once; the answers cannot change while the process runs.
bool vector_supported() {
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported;
}

}  // namespace

const KernelTable* vector_table() {
  if (!vector_supported()) return nullptr;
  static const KernelTable table =
      make_table(__builtin_cpu_supports("avx512f"),
                 __builtin_cpu_supports("avx512dq"));
  return &table;
}

const KernelTable* avx2_table_for_testing() {
  if (!vector_supported()) return nullptr;
  static const KernelTable table =
      make_table(/*avx512f=*/false, /*avx512dq=*/false);
  return &table;
}

}  // namespace baffle::kernels

#else  // vector arm not compiled in

namespace baffle::kernels {
const KernelTable* vector_table() { return nullptr; }
const KernelTable* avx2_table_for_testing() { return nullptr; }
}  // namespace baffle::kernels

#endif
