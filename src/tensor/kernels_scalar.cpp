// Scalar kernel arm: plain loops without FMA. This arm is the ground
// truth for the parity tests and the fallback selected by
// BAFFLE_FORCE_SCALAR or on CPUs without AVX2+FMA, so its arithmetic
// (accumulation order, rounding points) must not change.

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/kernels.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace baffle::kernels {
namespace {

// Every GEMM on this arm, reading B in place or packed: per output
// element, the fold over p in order from +0 with each product rounded
// before its add, then one bias add, then keep-unless-negative.
// Gemm.ScalarArmMatchesTextbookFoldBitForBit pins it to that loop.
void gemm_panel_rows(const PanelGemmArgs& g, std::size_t r0,
                     std::size_t r1) {
  BAFFLE_DCHECK(r0 <= r1, "kernel row range must be ordered");
  BAFFLE_DCHECK(r0 == r1 || g.c != nullptr,
                "kernel output pointer must be set for a non-empty range");
  const std::size_t panels = (g.n + kPanelCols - 1) / kPanelCols;
  for (std::size_t jp = 0; jp < panels; ++jp) {
    const float* panel = g.b + jp * g.b_panel_stride;
    const std::size_t j0 = jp * kPanelCols;
    const std::size_t cols = std::min(kPanelCols, g.n - j0);
    for (std::size_t i = r0; i < r1; ++i) {
      const float* a_row = g.a + i * g.a_row_stride;
      float acc[kPanelCols] = {};
      for (std::size_t p = 0; p < g.k; ++p) {
        const float av = a_row[p * g.a_p_stride];
        const float* b_row = panel + p * g.b_p_stride;
        for (std::size_t c = 0; c < cols; ++c) acc[c] += av * b_row[c];
      }
      float* out_row = g.c + i * g.ldc + j0;
      for (std::size_t c = 0; c < cols; ++c) {
        float v = acc[c];
        if (g.bias != nullptr) v += g.bias[j0 + c];
        if (g.relu && v < 0.0f) v = 0.0f;
        out_row[c] = v;
      }
    }
  }
}

// Sequential reads of each src row, ldd-strided writes.
void transpose(const float* src, std::size_t rows, std::size_t cols,
               std::size_t lds, float* dst, std::size_t ldd) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = src + r * lds;
    for (std::size_t c = 0; c < cols; ++c) dst[c * ldd + r] = row[c];
  }
}

void axpy(float alpha, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale(float* x, float alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

float max_value(const float* x, std::size_t n) {
  return *std::max_element(x, x + n);
}

void relu_backward(const float* activated, float* grad, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (activated[i] <= 0.0f) grad[i] = 0.0f;
  }
}

void add_u64(std::uint64_t* acc, const std::uint64_t* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += x[i];
}

void pair_keystream_u64(std::uint64_t* plus, std::uint64_t* minus,
                        std::uint64_t seed, std::size_t n) {
  std::uint64_t counter = seed;
  for (std::size_t k = 0; k < n; ++k, counter += Rng::kGoldenGamma) {
    const std::uint64_t m = Rng::split_mix(counter);
    if (plus != nullptr) plus[k] += m;
    if (minus != nullptr) minus[k] -= m;
  }
}

/// 2^63: the encode domain is |x * 2^frac_bits| < 2^63 (NaN fails the
/// comparison, so it is outside too).
constexpr double kEncodeLimit = 9223372036854775808.0;

// std::round's half-away-from-zero result without the libm call. The
// scaled value is a float times a power of two, so it carries at most
// 24 significant bits. For 0.5 <= |scaled| < 2^52 the sum scaled ± 0.5
// is exact; below 0.5 it stays strictly inside (-1, 1); from 2^52 up,
// scaled is an even integer and the sum rounds back to it. Truncation
// toward zero therefore yields round(scaled).
std::size_t encode_fixed_u64(const float* x, unsigned frac_bits,
                             std::uint64_t* out, std::size_t n) {
  const double unit = std::ldexp(1.0, static_cast<int>(frac_bits));
  for (std::size_t i = 0; i < n; ++i) {
    const double scaled = static_cast<double>(x[i]) * unit;
    if (!(std::fabs(scaled) < kEncodeLimit)) return i;
    out[i] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(scaled + std::copysign(0.5, scaled)));
  }
  return n;
}

// ---- Batched multi-model evaluation (DESIGN.md §14) ----

// Fold-left over p from a zero accumulator with one multiply-add per
// step and a single bias add afterwards: the exact accumulation pattern
// of gemm_panel_rows above, so a fused evaluation produces
// bit-identical activations to the sequential per-model forward pass on
// this arm. Panels are independent, so a group is one panel at a time.
void eval_layer_f32(const EvalLayerArgs& g) {
  for (std::size_t q = 0; q < g.panels; ++q) {
    const float* in = g.in + q * g.k * kPanelCols;
    float* out = g.out + q * g.n_out * kPanelCols;
    for (std::size_t i = 0; i < g.n_out; ++i) {
      const float* a_row = g.a + i * g.a_row_stride;
      float acc[kPanelCols] = {};
      for (std::size_t p = 0; p < g.k; ++p) {
        const float av = a_row[p * g.a_p_stride];
        const float* in_row = in + p * kPanelCols;
        for (std::size_t c = 0; c < kPanelCols; ++c) acc[c] += av * in_row[c];
      }
      float* out_row = out + i * kPanelCols;
      const float b = g.bias[i];
      for (std::size_t c = 0; c < kPanelCols; ++c) {
        float v = acc[c] + b;
        if (g.relu && v < 0.0f) v = 0.0f;
        out_row[c] = v;
      }
    }
  }
}

// ---- SGD step (DESIGN.md §10) ----

void exp_f32(float* out, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(x[i]);
}

/// One sample's gradient in place: the row loop's arithmetic on its
/// `cols` logits in a batch of `batch`.
void softmax_xent_row(float* row, int label, std::size_t cols, float batch,
                      float (*max_value)(const float*, std::size_t)) {
  const float mx = max_value(row, cols);
  float total = 0.0f;
  for (std::size_t c = 0; c < cols; ++c) {
    row[c] = std::exp(row[c] - mx);
    total += row[c];
  }
  for (std::size_t c = 0; c < cols; ++c) row[c] = row[c] / total / batch;
  row[static_cast<std::size_t>(label)] -= 1.0f / batch;
}

void softmax_xent_rows(float* x, const int* labels, std::size_t rows,
                       std::size_t cols) {
  softmax_xent_row_loop(x, labels, rows, cols, max_value);
}

void softmax_xent_class_major(float* x, const float* bias, const int* labels,
                              std::size_t classes, std::size_t batch,
                              float* bias_grad) {
  std::fill_n(bias_grad, classes, 0.0f);
  softmax_xent_class_major_loop(x, bias, labels, classes, batch, 0, batch,
                                bias_grad, max_value);
}

// __restrict lets the compiler keep `out` in registers across rows;
// without it the loop is slower than the per-row axpy it replaced.
void col_sum(const float* __restrict m, std::size_t rows, std::size_t cols,
             float* __restrict out) {
  std::fill_n(out, cols, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = m + r * cols;
    for (std::size_t c = 0; c < cols; ++c) out[c] += row[c];
  }
}

// Not axpy: this TU has no FMA codegen, so the product is rounded before
// its add, and the loop still vectorizes at -O3.
void sgd_update(float* w, const float* g, float lr, std::size_t n) {
  const float neg_lr = -lr;
  for (std::size_t i = 0; i < n; ++i) w[i] += neg_lr * g[i];
}

void argmax_margin_panel(const ArgmaxMarginArgs& g) {
  for (std::size_t c = 0; c < g.cols; ++c) {
    // Strict > keeps the first maximum, as std::max_element does.
    float best = g.in[c];
    float second = -std::numeric_limits<float>::infinity();
    std::size_t bi = 0;
    for (std::size_t i = 1; i < g.n_rows; ++i) {
      const float x = g.in[i * kPanelCols + c];
      if (x > best) {
        second = best;
        best = x;
        bi = i;
      } else if (x > second) {
        second = x;
      }
    }
    g.preds[c] = bi;
    if (g.margins != nullptr) g.margins[c] = best - second;
  }
}

// ---- Rng's engine (util/rng.hpp) ----

// std::mt19937_64's twist (libstdc++'s _M_gen_rand), in place and in
// order: word k becomes word (k + m) mod n — already updated when it
// precedes k — XOR the twisted join of word k and word (k + 1) mod n.
void mt_regenerate(std::uint64_t* x) {
  const auto twist = [x](std::size_t k, std::size_t next, std::size_t far) {
    const std::uint64_t y = (x[k] & kMtUpperMask) | (x[next] & ~kMtUpperMask);
    x[k] = x[far] ^ (y >> 1) ^ ((y & 1) != 0 ? kMtMatrixA : 0);
  };
  std::size_t k = 0;
  for (; k < kMtWords - kMtMiddle; ++k) twist(k, k + 1, k + kMtMiddle);
  for (; k < kMtWords - 1; ++k) twist(k, k + 1, k + kMtMiddle - kMtWords);
  twist(kMtWords - 1, 0, kMtMiddle - 1);
}

/// generate_canonical<double, 53> over one tempered word, then 2u - 1:
/// the polar method's coordinate. 1 - 2^-53 is nextafter(1, 0), where
/// libstdc++ clamps a sum that rounded up to 1.
double polar_coordinate(std::uint64_t raw) {
  const double u = std::min(static_cast<double>(Rng::temper(raw)) * 0x1p-64,
                            1.0 - 0x1p-53);
  return 2.0 * u - 1.0;
}

std::size_t polar_pairs(const PolarPairsArgs& g, std::size_t* pairs_read) {
  std::size_t accepted = 0;
  std::size_t i = 0;
  for (; i < g.pairs && accepted < g.want; ++i) {
    const double x = polar_coordinate(g.words[2 * i]);
    const double y = polar_coordinate(g.words[2 * i + 1]);
    const double r2 = x * x + y * y;
    if (r2 > 1.0 || r2 == 0.0) continue;
    g.y[accepted] = y;
    g.r2[accepted] = r2;
    ++accepted;
  }
  *pairs_read = i;
  return accepted;
}

constexpr KernelTable kTable = {
    "scalar",
    /*gemm_width=*/"scalar",
    /*gemm_reads_b_in_place=*/true,
    /*libm_exp_copy=*/false,
    gemm_panel_rows,
    transpose,
    axpy,
    scale,
    max_value,
    relu_backward,
    add_u64,
    pair_keystream_u64,
    encode_fixed_u64,
    eval_layer_f32,
    argmax_margin_panel,
    exp_f32,
    softmax_xent_rows,
    softmax_xent_class_major,
    col_sum,
    sgd_update,
    mt_regenerate,
    polar_pairs,
};

}  // namespace

const KernelTable& scalar_table() { return kTable; }

void softmax_xent_row_loop(float* x, const int* labels, std::size_t rows,
                           std::size_t cols,
                           float (*max_value)(const float*, std::size_t)) {
  const auto batch = static_cast<float>(rows);
  for (std::size_t r = 0; r < rows; ++r, x += cols) {
    softmax_xent_row(x, labels[r], cols, batch, max_value);
  }
}

void softmax_xent_class_major_loop(
    float* x, const float* bias, const int* labels, std::size_t classes,
    std::size_t batch, std::size_t i0, std::size_t i1, float* bias_grad,
    float (*max_value)(const float*, std::size_t)) {
  BAFFLE_DCHECK(classes <= kPanelCols, "class-major softmax stages a panel");
  float row[kPanelCols];
  for (std::size_t i = i0; i < i1; ++i) {
    for (std::size_t c = 0; c < classes; ++c) {
      row[c] = x[c * batch + i] + bias[c];
    }
    softmax_xent_row(row, labels[i], classes, static_cast<float>(batch),
                     max_value);
    for (std::size_t c = 0; c < classes; ++c) {
      x[c * batch + i] = row[c];
      bias_grad[c] += row[c];
    }
  }
}

}  // namespace baffle::kernels
