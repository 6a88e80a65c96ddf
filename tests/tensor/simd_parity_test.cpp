// Scalar-vs-SIMD parity: every dispatched kernel must agree between the
// two arms, across shapes chosen to hit full vectors, masked tails and
// degenerate operands. The scalar arm is the ground truth (it preserves
// the pre-SIMD arithmetic); the vector arm may differ only by
// FMA/reassociation rounding, bounded by the tolerances here.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "attack/model_replacement.hpp"
#include "exp/experiment.hpp"
#include "exp/scenario.hpp"
#include "nn/loss.hpp"
#include "nn/train.hpp"
#include "tensor/aligned.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/primitives.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"

namespace baffle {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// Shapes that cover: single element, sub-vector, exactly one vector,
// vector+1, tails of every panel width, and multi-panel/multi-tile.
const std::size_t kDims[] = {1, 3, 7, 8, 9, 31, 129};
const std::size_t kLens[] = {0, 1, 3, 7, 8, 9, 31, 129, 1000};

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (auto& x : m.flat()) x = static_cast<float>(rng.normal());
  return m;
}

void expect_matrices_near(const Matrix& ref, const Matrix& got, float rel) {
  ASSERT_EQ(ref.rows(), got.rows());
  ASSERT_EQ(ref.cols(), got.cols());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const float r = ref.flat()[i];
    ASSERT_NEAR(got.flat()[i], r, rel * (std::abs(r) + 1.0f))
        << "flat index " << i;
  }
}

void expect_spans_near(std::span<const float> ref, std::span<const float> got,
                       float rel) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(got[i], ref[i], rel * (std::abs(ref[i]) + 1.0f))
        << "index " << i;
  }
}

// Skips when the vector arm cannot be exercised: either it was not
// compiled in / the CPU lacks AVX2+FMA, or BAFFLE_FORCE_SCALAR pins the
// scalar arm (the forced-scalar CI leg must stay scalar-only, so the
// parity suite does not override the pin via force_isa()).
class SimdParity : public ::testing::Test {
 protected:
  void SetUp() override {
    if (simd::scalar_forced_by_env()) {
      GTEST_SKIP() << "BAFFLE_FORCE_SCALAR pins the scalar arm";
    }
    if (!simd::isa_available(simd::Isa::kVector)) {
      GTEST_SKIP() << "vector kernels unavailable on this build/CPU";
    }
  }
  void TearDown() override { simd::reset_isa(); }
};

enum class GemmKind { kAb, kAtb, kAbt };

void run_gemm(GemmKind kind, const Matrix& a, const Matrix& b, Matrix& out) {
  switch (kind) {
    case GemmKind::kAb:
      gemm_ab(a, b, out);
      break;
    case GemmKind::kAtb:
      gemm_atb(a, b, out);
      break;
    case GemmKind::kAbt:
      gemm_abt(a, b, out);
      break;
  }
}

void gemm_parity_over_shapes(GemmKind kind) {
  Rng rng(11);
  for (std::size_t m : kDims) {
    for (std::size_t n : kDims) {
      for (std::size_t k : kDims) {
        SCOPED_TRACE(::testing::Message()
                     << "m=" << m << " n=" << n << " k=" << k);
        const Matrix a = (kind == GemmKind::kAtb) ? random_matrix(k, m, rng)
                                                  : random_matrix(m, k, rng);
        const Matrix b = (kind == GemmKind::kAbt) ? random_matrix(n, k, rng)
                                                  : random_matrix(k, n, rng);
        Matrix ref(m, n), got(m, n);
        ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
        run_gemm(kind, a, b, ref);
        ASSERT_TRUE(simd::force_isa(simd::Isa::kVector));
        run_gemm(kind, a, b, got);
        expect_matrices_near(ref, got, 1e-4f);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST_F(SimdParity, GemmAbMatchesScalar) {
  gemm_parity_over_shapes(GemmKind::kAb);
}

TEST_F(SimdParity, GemmAtbMatchesScalar) {
  gemm_parity_over_shapes(GemmKind::kAtb);
}

TEST_F(SimdParity, GemmAbtMatchesScalar) {
  gemm_parity_over_shapes(GemmKind::kAbt);
}

TEST_F(SimdParity, GemmHandlesEmptyOperands) {
  for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kVector}) {
    SCOPED_TRACE(simd::isa_name(isa));
    ASSERT_TRUE(simd::force_isa(isa));

    // k == 0: the inner dimension is empty, C must be all zeros.
    Matrix out(2, 3, 123.0f);
    gemm_ab(Matrix(2, 0), Matrix(0, 3), out);
    for (float x : out.flat()) EXPECT_EQ(x, 0.0f);

    out.fill(123.0f);
    gemm_atb(Matrix(0, 2), Matrix(0, 3), out);
    for (float x : out.flat()) EXPECT_EQ(x, 0.0f);

    out.fill(123.0f);
    gemm_abt(Matrix(2, 0), Matrix(3, 0), out);
    for (float x : out.flat()) EXPECT_EQ(x, 0.0f);

    // m == 0 / n == 0: empty output, no touching of the operands.
    Matrix empty_rows(0, 3);
    gemm_ab(Matrix(0, 4), Matrix(4, 3), empty_rows);
    EXPECT_EQ(empty_rows.rows(), 0u);
    Matrix empty_cols(2, 0);
    gemm_ab(Matrix(2, 4), Matrix(4, 0), empty_cols);
    EXPECT_EQ(empty_cols.cols(), 0u);
  }
}

TEST_F(SimdParity, GemmPropagatesNanAndInf) {
  for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kVector}) {
    SCOPED_TRACE(simd::isa_name(isa));
    ASSERT_TRUE(simd::force_isa(isa));

    Matrix a(2, 9, 1.0f);
    a.at(0, 3) = kNan;  // row 0 -> every output NaN
    a.at(1, 5) = kInf;  // row 1 -> every output +inf (B is all ones)
    const Matrix b(9, 5, 1.0f);
    Matrix out(2, 5);
    gemm_ab(a, b, out);
    for (std::size_t j = 0; j < out.cols(); ++j) {
      EXPECT_TRUE(std::isnan(out.at(0, j))) << "col " << j;
      EXPECT_TRUE(std::isinf(out.at(1, j))) << "col " << j;
    }
  }
}

TEST_F(SimdParity, PackedPanelsAlignedAndZeroPadded) {
  Rng rng(6);
  const Matrix b = random_matrix(3, 5, rng);
  PackedB bp;
  pack_b_panels(b, bp);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(bp.data()) % simd::kAlignment,
            0u);
  // One 16-column panel, k rows: live columns match B, the tail is
  // zero so the microkernel's full-width FMAs contribute nothing.
  ASSERT_EQ(bp.k(), 3u);
  ASSERT_EQ(bp.n(), 5u);
  for (std::size_t p = 0; p < 3; ++p) {
    for (std::size_t c = 0; c < kernels::kPanelCols; ++c) {
      const float want = c < 5 ? b.at(p, c) : 0.0f;
      EXPECT_EQ(bp.data()[p * kernels::kPanelCols + c], want)
          << "p=" << p << " c=" << c;
    }
  }
}

TEST_F(SimdParity, MatrixStorageIsCacheLineAligned) {
  const Matrix m(7, 9, 1.0f);
  EXPECT_EQ(
      reinterpret_cast<std::uintptr_t>(m.flat().data()) % simd::kAlignment,
      0u);
  const AlignedFloatVec v(5, 1.0f);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % simd::kAlignment,
            0u);
}

TEST_F(SimdParity, ElementwisePrimitivesMatchScalar) {
  Rng rng(22);
  for (std::size_t n : kLens) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const std::vector<float> x = random_vec(n, rng);
    const std::vector<float> y0 = random_vec(n, rng);

    std::vector<float> ref_axpy = y0, ref_scale = x;
    ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
    axpy(0.75f, x, ref_axpy);
    scale(ref_scale, -1.25f);

    std::vector<float> got_axpy = y0, got_scale = x;
    ASSERT_TRUE(simd::force_isa(simd::Isa::kVector));
    axpy(0.75f, x, got_axpy);
    scale(got_scale, -1.25f);

    // FMA contraction may shave one rounding off axpy.
    expect_spans_near(ref_axpy, got_axpy, 1e-6f);
    // Pure products round identically: exact.
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got_scale[i], ref_scale[i]) << "scale index " << i;
    }
  }
}

TEST_F(SimdParity, ReluMatchesScalarIncludingNanAndSignedZero) {
  for (std::size_t n : kLens) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    std::vector<float> x(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = (static_cast<float>(i) - static_cast<float>(n) / 2.0f) * 0.5f;
    }
    if (n >= 4) {
      x[0] = kNan;       // NaN <= 0 is false: the gradient passes
      x[1] = -0.0f;      // -0 <= 0: zeroed
      x[2] = -kInf;      // zeroed
      x[3] = kInf;
    }
    std::vector<float> grad0(n, 2.0f);

    std::vector<float> ref_g = grad0;
    ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
    relu_backward(x, ref_g);

    std::vector<float> got_g = grad0;
    ASSERT_TRUE(simd::force_isa(simd::Isa::kVector));
    relu_backward(x, got_g);

    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got_g[i], ref_g[i]) << "grad index " << i;
    }
    if (n >= 4) {
      // NaN activation keeps its gradient on both arms (a <= 0 is false).
      EXPECT_EQ(ref_g[0], 2.0f);
      EXPECT_EQ(got_g[0], 2.0f);
    }
  }
}

TEST_F(SimdParity, AddU64MatchesScalarWithWraparound) {
  Rng rng(23);
  for (std::size_t n : kLens) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    std::vector<std::uint64_t> acc0(n), x(n);
    for (std::size_t i = 0; i < n; ++i) {
      acc0[i] = rng.next_u64() | (1ull << 63);  // force some wraparound
      x[i] = rng.next_u64();
    }
    std::vector<std::uint64_t> ref = acc0, got = acc0;
    ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
    add_u64(ref, x);
    ASSERT_TRUE(simd::force_isa(simd::Isa::kVector));
    add_u64(got, x);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], ref[i]) << "index " << i;
    }
  }
}

TEST_F(SimdParity, MaxValueMatchesScalar) {
  const kernels::KernelTable* vec = kernels::vector_table();
  ASSERT_NE(vec, nullptr);
  Rng rng(25);
  for (std::size_t n : kLens) {
    if (n == 0) continue;  // max_value requires n > 0
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    std::vector<float> x = random_vec(n, rng);
    EXPECT_EQ(vec->max_value(x.data(), n),
              kernels::scalar_table().max_value(x.data(), n));
    // All-negative input: catches a zero-initialized accumulator.
    for (auto& v : x) v = -std::abs(v) - 1.0f;
    EXPECT_EQ(vec->max_value(x.data(), n),
              kernels::scalar_table().max_value(x.data(), n));
  }
}

TEST_F(SimdParity, SoftmaxXentRowsMatchesScalar) {
  Rng rng(26);
  const Matrix logits = random_matrix(5, 13, rng);
  const std::vector<int> labels = {0, 12, 7, 3, 9};

  Matrix ref = logits;
  ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
  softmax_xent_grad(ref, labels);

  Matrix got = logits;
  ASSERT_TRUE(simd::force_isa(simd::Isa::kVector));
  softmax_xent_grad(got, labels);

  expect_matrices_near(ref, got, 1e-6f);
}

// ---- batched-eval kernels (DESIGN.md §14) ----
//
// The fused eval kernels are compared table-entry against table-entry:
// the scalar arm is ground truth; the fp32 vector tiles may differ only
// by FMA contraction, and the argmax must match bit-for-bit.

AlignedFloatVec random_panel(std::size_t k, Rng& rng) {
  AlignedFloatVec p(k * kernels::kPanelCols);
  for (auto& x : p) x = static_cast<float>(rng.normal());
  return p;
}

TEST_F(SimdParity, EvalLayerF32MatchesScalarWithinFma) {
  const kernels::KernelTable* vec = kernels::vector_table();
  ASSERT_NE(vec, nullptr);
  Rng rng(31);
  for (std::size_t k : kDims) {
    for (std::size_t n_out : kDims) {
      for (bool relu : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "k=" << k << " n_out=" << n_out << " relu=" << relu);
        const std::vector<float> w = random_vec(k * n_out, rng);
        const std::vector<float> bias = random_vec(n_out, rng);
        const AlignedFloatVec in = random_panel(k, rng);
        AlignedFloatVec ref(n_out * kernels::kPanelCols);
        AlignedFloatVec got(n_out * kernels::kPanelCols);
        kernels::EvalLayerArgs args{w.data(), 1,  n_out, bias.data(),
                                    in.data(), ref.data(), k, n_out, relu};
        kernels::scalar_table().eval_layer_f32(args);
        args.out = got.data();
        vec->eval_layer_f32(args);
        expect_spans_near(ref, got, 1e-4f);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST_F(SimdParity, ArgmaxMarginPanelMatchesScalarExactly) {
  const kernels::KernelTable* vec = kernels::vector_table();
  ASSERT_NE(vec, nullptr);
  Rng rng(36);
  for (std::size_t n_rows : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                             std::size_t{10}, std::size_t{13}}) {
    for (std::size_t cols : {std::size_t{1}, std::size_t{7}, std::size_t{16}}) {
      SCOPED_TRACE(::testing::Message()
                   << "n_rows=" << n_rows << " cols=" << cols);
      AlignedFloatVec in = random_panel(n_rows, rng);
      if (n_rows >= 3) {
        // Exact ties: first-max tie-breaking must agree across arms.
        in[0 * kernels::kPanelCols + 0] = 2.5f;
        in[2 * kernels::kPanelCols + 0] = 2.5f;
        in[1 * kernels::kPanelCols + 3] = in[0 * kernels::kPanelCols + 3];
      }
      std::vector<std::size_t> ref_p(cols, 99), got_p(cols, 99);
      std::vector<float> ref_m(cols), got_m(cols);
      kernels::ArgmaxMarginArgs args{in.data(), n_rows, cols, ref_p.data(),
                                     ref_m.data()};
      kernels::scalar_table().argmax_margin_panel(args);
      args.preds = got_p.data();
      args.margins = got_m.data();
      vec->argmax_margin_panel(args);
      for (std::size_t c = 0; c < cols; ++c) {
        ASSERT_EQ(got_p[c], ref_p[c]) << "pred col " << c;
        ASSERT_EQ(got_m[c], ref_m[c]) << "margin col " << c;
        if (n_rows == 1) {
          ASSERT_TRUE(std::isinf(ref_m[c])) << "col " << c;
        }
      }
      // margins are optional: a null pointer only skips the writes.
      args.margins = nullptr;
      args.preds = got_p.data();
      vec->argmax_margin_panel(args);
      for (std::size_t c = 0; c < cols; ++c) {
        ASSERT_EQ(got_p[c], ref_p[c]) << "pred(no margin) col " << c;
      }
    }
  }
}

// ---- GEMM tiles: fused epilogue, in-place B, AVX-512 vs AVX2 ----
//
// These compare bytes, not tolerances: the fused bias(+ReLU) epilogue,
// the in-place B reads and the zmm tiles all keep each output
// element's fold (FMA over p in order from +0, one bias add, then
// keep-unless-negative), so any difference is a bug. The one freedom is
// a NaN's payload where two NaNs meet in one instruction: x86
// propagates the NaN in its first source operand, and which operand
// comes first is the compiler's register allocation, pinned by neither
// width (IEEE 754 leaves the choice open too). So two NaNs match;
// every other bit — zero signs, denormals, infinities — must agree.

// kDims plus the shapes either side of a 16-column panel and of the
// AVX-512 tile's 4-panel group (64, 65) and 6- and 8-row tiles.
const std::size_t kWidthDims[] = {1, 3, 7, 8, 9, 31, 129, 10, 16, 17, 64, 65};

/// A few NaN/±Inf entries (each poisons one output row or column) and
/// a dozen −0 and denormal entries (which must poison nothing; more
/// would only slow the test down with denormal microcode assists).
void add_specials(std::span<float> v, Rng& rng) {
  if (v.empty()) return;
  const auto at = [&] {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1));
  };
  const float quiet[] = {-0.0f, std::numeric_limits<float>::denorm_min(),
                         -std::numeric_limits<float>::min() / 4.0f, 1e-39f};
  for (int i = 0; i < 12; ++i) v[at()] = quiet[i % 4];
  for (float x : {kNan, kInf, -kInf}) v[at()] = x;
}

Matrix special_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m = random_matrix(rows, cols, rng);
  add_specials(m.flat(), rng);
  return m;
}

void expect_same_bytes(std::span<const float> ref, std::span<const float> got) {
  ASSERT_EQ(ref.size(), got.size());
  if (ref.empty() ||
      std::memcmp(ref.data(), got.data(), ref.size_bytes()) == 0) {
    return;
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (std::isnan(ref[i]) && std::isnan(got[i])) continue;
    std::uint32_t rb, gb;
    std::memcpy(&rb, &ref[i], sizeof(rb));
    std::memcpy(&gb, &got[i], sizeof(gb));
    ASSERT_EQ(gb, rb) << "first differing float at index " << i;
  }
}

/// The tables whose GEMM is compared byte for byte: the dispatched
/// vector table (zmm tiles) and the AVX2-only table. Null `zmm` when
/// this CPU or build has no AVX-512F tile.
struct GemmWidths {
  const kernels::KernelTable* zmm = nullptr;
  const kernels::KernelTable* ymm = nullptr;
};

GemmWidths gemm_widths() {
  GemmWidths w;
  w.ymm = kernels::avx2_table_for_testing();
  const kernels::KernelTable* vec = kernels::vector_table();
  if (vec != nullptr && std::strcmp(vec->gemm_width, "avx512f") == 0) {
    w.zmm = vec;
  }
  return w;
}

#define SKIP_WITHOUT_AVX512F(w)                                       \
  if ((w).zmm == nullptr) {                                           \
    GTEST_SKIP() << "no AVX-512F GEMM tile on this CPU/build: the "   \
                    "AVX2 tile is the only vector GEMM here";         \
  }

/// Every GEMM entry point on one width, outputs in a fixed order:
/// gemm_ab, gemm_ab_bias without and with ReLU on (a, b); gemm_atb on
/// (at, b); gemm_abt on (a, bt).
std::vector<Matrix> run_gemms(const kernels::KernelTable& t, const Matrix& a,
                              const Matrix& at, const Matrix& b,
                              const Matrix& bt, std::span<const float> bias) {
  kernels::pin_table_for_testing(t);
  const std::size_t m = a.rows(), n = b.cols();
  std::vector<Matrix> out(5, Matrix(m, n));
  gemm_ab(a, b, out[0]);
  gemm_ab_bias(a, b, bias, /*relu=*/false, out[1]);
  gemm_ab_bias(a, b, bias, /*relu=*/true, out[2]);
  gemm_atb(at, b, out[3]);
  gemm_abt(a, bt, out[4]);
  return out;
}

TEST_F(SimdParity, EvalLayerPanelGroupsEqualSinglePanelCallsOnEveryArm) {
  // One P-panel eval_layer_f32 call must write exactly the bytes of P
  // one-panel calls on every arm: the zmm arm's multi-panel tiles only
  // regroup independent lanes. The experiments' widths (64, 10; 96, 62)
  // sit among every row-tail length and all group remainders up to two
  // full 4-panel groups plus one.
  std::vector<const kernels::KernelTable*> arms{&kernels::scalar_table(),
                                                kernels::vector_table()};
  if (const kernels::KernelTable* ymm = kernels::avx2_table_for_testing()) {
    arms.push_back(ymm);
  }
  std::vector<std::size_t> n_outs;
  for (std::size_t n = 1; n <= 13; ++n) n_outs.push_back(n);
  for (std::size_t n : {62, 64, 96}) n_outs.push_back(n);
  constexpr std::size_t kPC = kernels::kPanelCols;
  Rng rng(43);
  for (const std::size_t k : {1, 10, 32, 48, 64, 96}) {
    for (const std::size_t n_out : n_outs) {
      const std::size_t max_panels = 9;
      std::vector<float> w = random_vec(k * n_out, rng);
      std::vector<float> bias = random_vec(n_out, rng);
      AlignedFloatVec in = random_panel(k * max_panels, rng);
      // NaN, ±0 and ±Inf inputs and weights; ReLU sees negative, −0
      // and NaN pre-activations.
      add_specials(in, rng);
      add_specials(w, rng);
      bias[0] = -0.0f;
      for (const kernels::KernelTable* t : arms) {
        for (std::size_t panels = 1; panels <= max_panels; ++panels) {
          for (bool relu : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << t->gemm_width << " k=" << k << " n_out=" << n_out
                         << " panels=" << panels << " relu=" << relu);
            AlignedFloatVec ref(panels * n_out * kPC);
            AlignedFloatVec got(panels * n_out * kPC);
            kernels::EvalLayerArgs args{w.data(),  1,      n_out,
                                        bias.data(), nullptr, nullptr,
                                        k,         n_out,  relu,
                                        1};
            for (std::size_t q = 0; q < panels; ++q) {
              args.in = in.data() + q * k * kPC;
              args.out = ref.data() + q * n_out * kPC;
              t->eval_layer_f32(args);
            }
            args.in = in.data();
            args.out = got.data();
            args.panels = panels;
            t->eval_layer_f32(args);
            expect_same_bytes(ref, got);
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST_F(SimdParity, GemmWidthsAgreeBitForBit) {
  const GemmWidths w = gemm_widths();
  SKIP_WITHOUT_AVX512F(w);
  Rng rng(41);
  for (std::size_t m : kWidthDims) {
    for (std::size_t n : kWidthDims) {
      for (std::size_t k : kWidthDims) {
        SCOPED_TRACE(::testing::Message()
                     << "m=" << m << " n=" << n << " k=" << k);
        const Matrix a = special_matrix(m, k, rng);
        const Matrix at = special_matrix(k, m, rng);
        const Matrix b = special_matrix(k, n, rng);
        const Matrix bt = special_matrix(n, k, rng);
        std::vector<float> bias = random_vec(n, rng);
        add_specials(bias, rng);
        const std::vector<Matrix> ref = run_gemms(*w.ymm, a, at, b, bt, bias);
        const std::vector<Matrix> got = run_gemms(*w.zmm, a, at, b, bt, bias);
        for (std::size_t op = 0; op < ref.size(); ++op) {
          SCOPED_TRACE(::testing::Message() << "entry point " << op);
          expect_same_bytes(ref[op].flat(), got[op].flat());
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST_F(SimdParity, FusedBiasReluEqualsSequentialPassesOnEveryArm) {
  // The fused epilogue must equal gemm_ab followed by a separate bias
  // pass and ReLU pass, byte for byte on every table, or records would
  // change.
  const GemmWidths w = gemm_widths();
  std::vector<const kernels::KernelTable*> tables = {&kernels::scalar_table(),
                                                     w.ymm};
  if (w.zmm != nullptr) tables.push_back(w.zmm);
  Rng rng(42);
  for (const kernels::KernelTable* t : tables) {
    SCOPED_TRACE(t->gemm_width);
    kernels::pin_table_for_testing(*t);
    for (std::size_t m : {std::size_t{1}, std::size_t{7}, std::size_t{32},
                          std::size_t{64}}) {
      for (std::size_t n : kWidthDims) {
        for (std::size_t k : {std::size_t{3}, std::size_t{32},
                              std::size_t{48}, std::size_t{129}}) {
          for (bool relu : {false, true}) {
            SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n
                                              << " k=" << k
                                              << " relu=" << relu);
            const Matrix a = special_matrix(m, k, rng);
            const Matrix b = special_matrix(k, n, rng);
            std::vector<float> bias = random_vec(n, rng);
            add_specials(bias, rng);
            Matrix ref(m, n), got(m, n);
            gemm_ab(a, b, ref);
            // One bias add per element, then `if (v < 0) v = 0`, which
            // leaves NaN and -0 alone.
            for (std::size_t i = 0; i < m; ++i) {
              for (std::size_t j = 0; j < n; ++j) {
                float& v = ref.at(i, j);
                v += bias[j];
                if (relu && v < 0.0f) v = 0.0f;
              }
            }
            gemm_ab_bias(a, b, bias, relu, got);
            expect_same_bytes(ref.flat(), got.flat());
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST_F(SimdParity, GemmPanelRowsReadsInPlaceLikePacked) {
  // gemm_panel_rows straight from each table that reads B in place (the
  // scalar table and the zmm tile): row-major B, masked at the tail
  // panel, must give the bytes the packed panels give. The scalar
  // table's packed result must also equal the textbook loop: the fold
  // over p from +0 with each product rounded before its add (this file
  // has no FMA codegen), one bias add, then keep-unless-negative.
  const GemmWidths w = gemm_widths();
  std::vector<const kernels::KernelTable*> tables = {&kernels::scalar_table()};
  if (w.zmm != nullptr) tables.push_back(w.zmm);
  Rng rng(43);
  for (const kernels::KernelTable* t : tables) {
    for (std::size_t n : kWidthDims) {
      for (std::size_t k : {std::size_t{1}, std::size_t{17}, std::size_t{64}}) {
        SCOPED_TRACE(::testing::Message()
                     << t->gemm_width << " n=" << n << " k=" << k);
        const std::size_t m = 13;
        const Matrix a = special_matrix(m, k, rng);
        const Matrix b = special_matrix(k, n, rng);
        const std::vector<float> bias = random_vec(n, rng);
        PackedB bp;
        pack_b_panels(b, bp);
        Matrix ref(m, n), got(m, n);
        kernels::PanelGemmArgs args;
        args.a = a.flat().data();
        args.a_row_stride = k;
        args.a_p_stride = 1;
        args.bias = bias.data();
        args.relu = true;
        args.c = ref.flat().data();
        args.ldc = n;
        args.k = k;
        args.n = n;
        args.b = bp.data();
        args.b_p_stride = kernels::kPanelCols;
        args.b_panel_stride = k * kernels::kPanelCols;
        t->gemm_panel_rows(args, 0, m);
        if (t == &kernels::scalar_table()) {
          Matrix seq(m, n);
          for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
              float acc = 0.0f;
              for (std::size_t p = 0; p < k; ++p) {
                const float prod = a.at(i, p) * b.at(p, j);
                acc += prod;
              }
              acc += bias[j];
              seq.at(i, j) = acc < 0.0f ? 0.0f : acc;
            }
          }
          expect_same_bytes(seq.flat(), ref.flat());
        }
        args.c = got.flat().data();
        args.b = b.flat().data();
        args.b_p_stride = n;
        args.b_panel_stride = kernels::kPanelCols;
        t->gemm_panel_rows(args, 0, m);
        expect_same_bytes(ref.flat(), got.flat());
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST_F(SimdParity, TrainSgdWidthsAgreeBitForBit) {
  // End to end through train_sgd: one client's local update on each
  // task and the vision pretraining must leave byte-equal parameters
  // whichever register width ran the GEMMs.
  const GemmWidths w = gemm_widths();
  SKIP_WITHOUT_AVX512F(w);
  const auto params_after = [&](const kernels::KernelTable& t, const Mlp& init,
                                const Dataset& data,
                                const TrainConfig& config) {
    kernels::pin_table_for_testing(t);
    Mlp model = init;
    Rng rng(9);
    train_sgd(model, data.features(), data.labels(), config, rng);
    return model.parameters();
  };
  for (TaskKind task : {TaskKind::kVision10, TaskKind::kFemnist62}) {
    SCOPED_TRACE(task_kind_name(task));
    Rng rng(71);
    const Scenario sc = build_scenario(
        task == TaskKind::kVision10 ? vision_scenario() : femnist_scenario(),
        rng);
    Mlp init(sc.arch);
    init.init(rng);
    const Dataset& shard = sc.clients[sc.attacker_id].data();
    ASSERT_FALSE(shard.empty());
    expect_same_bytes(params_after(*w.ymm, init, shard, sc.fl.local_train),
                      params_after(*w.zmm, init, shard, sc.fl.local_train));
    if (task == TaskKind::kVision10) {
      TrainConfig pre;  // run_experiment's pretraining, 2 epochs
      pre.epochs = 2;
      pre.batch_size = 64;
      pre.sgd.learning_rate = 0.05f;
      expect_same_bytes(params_after(*w.ymm, init, sc.task.train, pre),
                        params_after(*w.zmm, init, sc.task.train, pre));
      // The attacker's injection as run_experiment crafts it: 8 epochs
      // at lr 0.05 on its shard blended with relabelled backdoor samples.
      const ExperimentConfig defaults;
      ModelReplacementConfig attack;
      attack.task = sc.backdoor;
      attack.poison_fraction = defaults.attack_poison_fraction;
      attack.train = sc.fl.local_train;
      attack.train.epochs = defaults.attack_epochs;
      attack.train.sgd.learning_rate = defaults.attack_learning_rate;
      const auto injection = [&](const kernels::KernelTable& t) {
        kernels::pin_table_for_testing(t);
        Rng attack_rng(13);
        return craft_replacement_update(init, shard, sc.task.backdoor_train,
                                        attack, attack_rng);
      };
      expect_same_bytes(injection(*w.ymm), injection(*w.zmm));
    }
  }
}

// ---- SGD step kernels (DESIGN.md §10) ----
//
// The softmax, Bᵀ pack, ReLU mask, column sums and in-place update are
// byte-identical on the scalar arm, the ymm width and the zmm width:
// each compares all three tables (two without AVX-512F).

std::vector<const kernels::KernelTable*> every_width() {
  const GemmWidths w = gemm_widths();
  std::vector<const kernels::KernelTable*> tables = {&kernels::scalar_table(),
                                                     w.ymm, w.zmm};
  if (w.zmm == nullptr) tables.pop_back();
  return tables;
}

std::uint32_t float_bits(float x) {
  std::uint32_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

float bits_float(std::uint32_t b) {
  float x;
  std::memcpy(&x, &b, sizeof(x));
  return x;
}

TEST_F(SimdParity, ExpMatchesLibmBitForBit) {
  // The dispatched exp_f32 against std::exp: a strided sweep of all 2^32
  // patterns, every pattern in the bands either side of the copy's
  // |x| = 88 cutoff, every input with a subnormal result, and ±0, ±Inf
  // and NaN payloads. tools/exp_sweep checks every pattern.
  const kernels::KernelTable& t = kernels::active_table();
  if (!t.libm_exp_copy) {
    if (gemm_widths().zmm == nullptr) {
      GTEST_SKIP() << "no AVX-512F on this CPU/build: exp_f32 is std::exp";
    }
    GTEST_SKIP() << "the dispatch probe found this libm's expf differs "
                    "from the AVX-512 copy, which is therefore off";
  }
  std::size_t checked = 0, mismatches = 0;
  std::vector<float> x, got;
  const auto check = [&](std::uint64_t first, std::uint64_t last,
                         std::uint64_t stride) {  // [first, last]
    for (std::uint64_t b0 = first; b0 <= last; b0 += 4096 * stride) {
      x.clear();
      for (std::uint64_t b = b0; b <= last && x.size() < 4096; b += stride) {
        x.push_back(bits_float(static_cast<std::uint32_t>(b)));
      }
      got.resize(x.size());
      t.exp_f32(got.data(), x.data(), x.size());
      for (std::size_t i = 0; i < x.size(); ++i) {
        const std::uint32_t want = float_bits(std::exp(x[i]));
        if (float_bits(got[i]) != want && ++mismatches <= 5) {
          ADD_FAILURE() << std::hex << "exp(0x" << float_bits(x[i])
                        << ") = 0x" << float_bits(got[i])
                        << ", std::exp gives 0x" << want;
        }
      }
      checked += x.size();
    }
  };
  check(0, 0xFFFFFFFFull, 1021);
  for (std::uint64_t sign : {0ull, 0x80000000ull}) {
    check(sign | (0x42b00000 - (1u << 16)), sign | (0x42b00000 + (1u << 16)),
          1);
  }
  // exp(x) is subnormal for x in (-103.28, -87.34): sweep [-104, -87].
  check(float_bits(-87.0f), float_bits(-104.0f), 1);
  ASSERT_EQ(std::fpclassify(std::exp(-100.0f)), FP_SUBNORMAL);
  for (std::uint32_t b : {0x00000000u, 0x80000000u, 0x7f800000u, 0xff800000u,
                          0x7fc00000u, 0xffc00000u, 0x7f800001u, 0xff800001u,
                          0x7fa00000u, 0x7fffffffu, 0xffffffffu, 0x00000001u,
                          0x807fffffu}) {
    check(b, b, 1);
  }
  EXPECT_EQ(mismatches, 0u) << "of " << checked << " patterns";
}

/// True when `got` holds `ref`'s floats bit for bit, NaN payloads too:
/// what a kernel that only copies or zeroes must leave.
::testing::AssertionResult identical_bytes(std::span<const float> ref,
                                           std::span<const float> got) {
  if (ref.size() != got.size()) {
    return ::testing::AssertionFailure() << "lengths differ";
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (float_bits(ref[i]) != float_bits(got[i])) {
      return ::testing::AssertionFailure()
             << "first differing float at index " << i << ": " << got[i]
             << " vs " << ref[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Logits of one softmax test batch; `kind` picks what rides along.
enum class LogitRows { kPlain, kWideSpread, kInfinite, kNan };

Matrix softmax_logits(std::size_t rows, std::size_t cols, LogitRows kind,
                      Rng& rng) {
  Matrix x(rows, cols);
  for (float& v : x.flat()) v = static_cast<float>(rng.normal(0.0, 3.0));
  const auto row = [&](std::size_t i) { return x.row(i % rows); };
  switch (kind) {
    case LogitRows::kPlain:
      break;
    case LogitRows::kWideSpread:
      // Spreads past 88 send lanes to std::exp; 87.5 gives subnormals;
      // -0 next to +0 checks that the max's sign does not matter.
      row(0)[0] = 60.0f;
      row(0)[cols - 1] = -45.0f;
      row(1)[cols / 2] = -87.5f;
      row(2)[0] = -0.0f;
      row(2)[cols - 1] = 0.0f;
      row(3)[1 % cols] = 200.0f;
      break;
    case LogitRows::kInfinite:
      row(0)[cols - 1] = kInf;
      row(1)[0] = -kInf;
      for (float& v : row(2)) v = -kInf;
      break;
    case LogitRows::kNan:
      // Two payloads in one row, so the order NaNs meet in shows.
      row(rows / 2)[cols / 3] = kNan;
      row(rows / 2)[cols - 1] = bits_float(0xffc00123u);
      break;
  }
  return x;
}

TEST_F(SimdParity, SoftmaxXentRowsWidthsAgreeBitForBit) {
  const std::vector<const kernels::KernelTable*> tables = every_width();
  Rng rng(51);
  for (std::size_t rows : {1, 15, 16, 17, 33, 64}) {
    for (std::size_t cols : {10, 62}) {
      for (LogitRows kind : {LogitRows::kPlain, LogitRows::kWideSpread,
                             LogitRows::kInfinite, LogitRows::kNan}) {
        SCOPED_TRACE(::testing::Message() << "rows=" << rows << " cols="
                                          << cols << " kind="
                                          << static_cast<int>(kind));
        const Matrix logits = softmax_logits(rows, cols, kind, rng);
        std::vector<int> labels(rows);
        for (auto& y : labels) {
          y = static_cast<int>(
              rng.uniform_int(0, static_cast<std::int64_t>(cols) - 1));
        }
        Matrix ref;
        Matrix ymm;
        for (const kernels::KernelTable* t : tables) {
          SCOPED_TRACE(t->gemm_width);
          kernels::pin_table_for_testing(*t);
          Matrix got = logits;
          softmax_xent_grad(got, labels);
          if (t == &kernels::scalar_table()) {
            ref = got;
            continue;
          }
          expect_same_bytes(ref.flat(), got.flat());
          if (t == tables[1]) {
            ymm = got;
          } else if (kind == LogitRows::kNan) {
            // A batch holding a NaN runs the ymm width's row loop on the
            // zmm width too, so even the NaN payloads agree.
            EXPECT_EQ(std::memcmp(ymm.flat().data(), got.flat().data(),
                                  got.flat().size_bytes()),
                      0);
          }
          if (::testing::Test::HasFatalFailure()) return;
        }
        const bool any_nan = std::any_of(ref.flat().begin(), ref.flat().end(),
                                         [](float g) { return std::isnan(g); });
        EXPECT_EQ(any_nan, kind == LogitRows::kInfinite ||
                               kind == LogitRows::kNan);
      }
    }
  }
}

TEST_F(SimdParity, SoftmaxXentClassMajorMatchesRowLoopOnEveryWidth) {
  // The class-major entry on every width against the scalar arm's row
  // loop on the same logits laid out one row per sample with the bias
  // added: its gradient transposed back, and its bias gradient against
  // the axpy chain col_sum replaced. Up to one 16-lane panel of classes.
  const std::vector<const kernels::KernelTable*> tables = every_width();
  Rng rng(57);
  for (std::size_t batch : {1, 15, 16, 17, 20, 33, 64}) {
    for (std::size_t classes : {1, 2, 10, 15, 16}) {
      for (LogitRows kind : {LogitRows::kPlain, LogitRows::kWideSpread,
                             LogitRows::kInfinite, LogitRows::kNan}) {
        SCOPED_TRACE(::testing::Message() << "batch=" << batch << " classes="
                                          << classes << " kind="
                                          << static_cast<int>(kind));
        const Matrix logits = softmax_logits(batch, classes, kind, rng);
        std::vector<float> bias(classes);
        for (float& b : bias) b = static_cast<float>(rng.normal(0.0, 0.5));
        std::vector<int> labels(batch);
        for (auto& y : labels) {
          y = static_cast<int>(
              rng.uniform_int(0, static_cast<std::int64_t>(classes) - 1));
        }
        Matrix ref = logits;
        for (std::size_t r = 0; r < batch; ++r) {
          for (std::size_t c = 0; c < classes; ++c) ref.at(r, c) += bias[c];
        }
        kernels::scalar_table().softmax_xent_rows(
            ref.flat().data(), labels.data(), batch, classes);
        std::vector<float> ref_bias_grad(classes, 0.0f);
        for (std::size_t r = 0; r < batch; ++r) {
          kernels::scalar_table().axpy(1.0f, ref.row(r).data(),
                                       ref_bias_grad.data(), classes);
        }
        Matrix ymm;
        std::vector<float> ymm_bias_grad;
        for (const kernels::KernelTable* t : tables) {
          SCOPED_TRACE(t->gemm_width);
          kernels::pin_table_for_testing(*t);
          Matrix logits_t;
          transpose(logits, logits_t);
          std::vector<float> bias_grad(classes, 7.0f);  // overwritten
          t->softmax_xent_class_major(logits_t.flat().data(), bias.data(),
                                      labels.data(), classes, batch,
                                      bias_grad.data());
          Matrix got;
          transpose(logits_t, got);
          expect_same_bytes(ref.flat(), got.flat());
          expect_same_bytes(ref_bias_grad, bias_grad);
          if (t == tables[1]) {
            ymm = got;
            ymm_bias_grad = bias_grad;
          } else if (t != tables[0] && kind == LogitRows::kNan) {
            // A block holding a NaN runs the ymm width's loop on the zmm
            // width too, so even the NaN payloads agree.
            EXPECT_TRUE(identical_bytes(ymm.flat(), got.flat()));
            EXPECT_TRUE(identical_bytes(ymm_bias_grad, bias_grad));
          }
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST_F(SimdParity, ColSumMatchesPerRowAxpyOnEveryWidth) {
  // col_sum replaced one axpy(1, row, out) per row from +0; on every
  // width the one call must give that loop's bytes, −0/NaN/±Inf too.
  Rng rng(52);
  for (std::size_t rows : {0, 1, 2, 7, 32, 33, 65}) {
    for (std::size_t cols : {1, 7, 8, 9, 10, 31, 32, 33, 64, 65, 70}) {
      SCOPED_TRACE(::testing::Message() << "rows=" << rows
                                        << " cols=" << cols);
      const Matrix m = special_matrix(rows, cols, rng);
      for (const kernels::KernelTable* t : every_width()) {
        SCOPED_TRACE(t->gemm_width);
        kernels::pin_table_for_testing(*t);
        std::vector<float> ref(cols, 0.0f);
        for (std::size_t r = 0; r < rows; ++r) {
          t->axpy(1.0f, m.row(r).data(), ref.data(), cols);
        }
        std::vector<float> got(cols, 7.0f);  // col_sum overwrites
        col_sum(m, got);
        expect_same_bytes(ref, got);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST_F(SimdParity, SgdUpdateMatchesScalarOnEveryWidth) {
  // w += round(−lr·g): on every width the scalar loop's bytes. The
  // inputs hold many elements where one FMA, fma(−lr, g, w), rounds to
  // other bytes, so an update contracted into an FMA fails.
  Rng rng(54);
  std::size_t fused_differs = 0;
  for (std::size_t n : {0, 1, 7, 15, 16, 17, 33, 64, 640, 1000, 2762}) {
    for (const float lr : {0.1f, 0.05f, 0.3f}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " lr=" << lr);
      std::vector<float> w = random_vec(n, rng), g = random_vec(n, rng);
      add_specials(w, rng);
      add_specials(g, rng);
      std::vector<float> ref = w;
      kernels::scalar_table().sgd_update(ref.data(), g.data(), lr, n);
      for (std::size_t i = 0; i < n; ++i) {
        const float fused = std::fma(-lr, g[i], w[i]);
        if (!std::isnan(ref[i]) && float_bits(fused) != float_bits(ref[i])) {
          ++fused_differs;
        }
      }
      for (const kernels::KernelTable* t : every_width()) {
        SCOPED_TRACE(t->gemm_width);
        kernels::pin_table_for_testing(*t);
        std::vector<float> got = w;
        sgd_update(got, g, lr);
        expect_same_bytes(ref, got);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(fused_differs, 1000u);
}

TEST_F(SimdParity, PackBtPanelsMatchesScalarOnEveryWidth) {
  // gemm_abt's transposing copy: on every width, panel jp's row p holds
  // b[16·jp + c][p] in column c, NaN payloads included, and +0 past the
  // last row of b over whatever the scratch held before.
  Rng rng(55);
  constexpr std::size_t pc = kernels::kPanelCols;
  for (std::size_t n : {1, 10, 15, 16, 17, 62, 64, 65, 96}) {
    for (std::size_t k : {1, 10, 32, 62}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " k=" << k);
      const Matrix b = special_matrix(n, k, rng);
      const std::size_t panels = (n + pc - 1) / pc;
      std::vector<float> want(panels * k * pc, 0.0f);
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t p = 0; p < k; ++p) {
          want[(j / pc) * k * pc + p * pc + j % pc] = b.at(j, p);
        }
      }
      const Matrix stale(panels * pc, k, kNan);
      for (const kernels::KernelTable* t : every_width()) {
        SCOPED_TRACE(t->gemm_width);
        kernels::pin_table_for_testing(*t);
        PackedB packed;
        pack_bt_panels(stale, packed);
        pack_bt_panels(b, packed);
        ASSERT_EQ(packed.k(), k);
        ASSERT_EQ(packed.n(), n);
        ASSERT_TRUE(identical_bytes(
            want, std::span<const float>(packed.data(), want.size())));
      }
    }
  }
}

TEST_F(SimdParity, TransposeMatchesScalarOnEveryWidth) {
  // A copy: dst[c·ldd + r] = src[r·lds + c] bit for bit, NaN payloads
  // (quiet and signalling) included, on every width, for every tail of
  // the zmm arm's 16 x 16 blocks and strides wider than the block; the
  // rest of dst keeps its bytes.
  Rng rng(58);
  const float untouched = bits_float(0x7fa5a5a5u);
  for (std::size_t rows : {1, 2, 10, 15, 16, 17, 33, 64, 65}) {
    for (std::size_t cols : {1, 10, 15, 16, 17, 32, 62, 64, 65}) {
      for (std::size_t pad : {0, 3}) {
        SCOPED_TRACE(::testing::Message() << "rows=" << rows << " cols="
                                          << cols << " pad=" << pad);
        const std::size_t lds = cols + pad, ldd = rows + pad;
        std::vector<float> src = random_vec(rows * lds, rng);
        add_specials(src, rng);
        src[rows * lds / 2] = bits_float(0x7f800001u);
        src.back() = bits_float(0xffc00123u);
        std::vector<float> want(cols * ldd, untouched);
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t c = 0; c < cols; ++c) {
            want[c * ldd + r] = src[r * lds + c];
          }
        }
        for (const kernels::KernelTable* t : every_width()) {
          SCOPED_TRACE(t->gemm_width);
          std::vector<float> got(cols * ldd, untouched);
          t->transpose(src.data(), rows, cols, lds, got.data(), ldd);
          ASSERT_TRUE(identical_bytes(want, got));
        }
      }
    }
  }
}

TEST_F(SimdParity, ReluBackwardMatchesScalarOnEveryWidth) {
  // The gradient survives where NOT (a <= 0) and becomes +0 elsewhere:
  // NaN activations keep it, −0 and −Inf lose it, on every width and
  // every tail; the surviving gradients keep their bytes.
  Rng rng(56);
  const float edges[] = {kNan, -0.0f, 0.0f, -kInf, kInf,
                         std::numeric_limits<float>::denorm_min(),
                         -std::numeric_limits<float>::denorm_min()};
  for (std::size_t n : {0, 1, 7, 15, 16, 17, 31, 33, 64, 640, 1000, 2048}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    std::vector<float> a = random_vec(n, rng), g = random_vec(n, rng);
    add_specials(g, rng);
    for (std::size_t i = 0; i < n; i += 3) a[i] = edges[(i / 3) % 7];
    std::vector<float> ref = g;
    kernels::scalar_table().relu_backward(a.data(), ref.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t want = a[i] <= 0.0f ? 0u : float_bits(g[i]);
      ASSERT_EQ(float_bits(ref[i]), want) << "index " << i;
    }
    for (const kernels::KernelTable* t : every_width()) {
      SCOPED_TRACE(t->gemm_width);
      kernels::pin_table_for_testing(*t);
      std::vector<float> got = g;
      relu_backward(a, got);
      ASSERT_TRUE(identical_bytes(ref, got));
    }
  }
}

/// Secure-aggregation vector lengths: every tail of the 4- and 8-lane
/// loops, and the vision and FEMNIST models' parameter counts.
std::vector<std::size_t> mask_lengths() {
  std::vector<std::size_t> lens;
  for (std::size_t n = 0; n <= 17; ++n) lens.push_back(n);
  lens.push_back(2762);
  lens.push_back(10718);
  return lens;
}

TEST_F(SimdParity, PairKeystreamU64MatchesDefinitionOnEveryArm) {
  // The mask keystream is exact integer arithmetic: on every arm, one
  // call must add m_k = Rng::split_mix(seed + k * kGoldenGamma) to
  // `plus` and subtract it from `minus` word for word — both sides, or
  // either one alone — and touch nothing past n.
  Rng rng(25);
  for (const kernels::KernelTable* t : every_width()) {
    for (std::size_t n : mask_lengths()) {
      for (int sides : {0, 1, 2, 3}) {  // bit 0: plus, bit 1: minus
        SCOPED_TRACE(::testing::Message() << t->name << "/" << t->gemm_width
                                          << " n=" << n << " sides=" << sides);
        const std::uint64_t seed = rng.next_u64();
        // One guard word past the end of each buffer.
        std::vector<std::uint64_t> plus0(n + 1), minus0(n + 1);
        for (auto& v : plus0) v = rng.next_u64();
        for (auto& v : minus0) v = rng.next_u64();
        std::vector<std::uint64_t> plus = plus0, minus = minus0;
        t->pair_keystream_u64((sides & 1) ? plus.data() : nullptr,
                              (sides & 2) ? minus.data() : nullptr, seed, n);
        for (std::size_t k = 0; k < n; ++k) {
          const std::uint64_t m = Rng::split_mix(seed + k * Rng::kGoldenGamma);
          ASSERT_EQ(plus[k], (sides & 1) ? plus0[k] + m : plus0[k])
              << "plus word " << k;
          ASSERT_EQ(minus[k], (sides & 2) ? minus0[k] - m : minus0[k])
              << "minus word " << k;
        }
        ASSERT_EQ(plus[n], plus0[n]);
        ASSERT_EQ(minus[n], minus0[n]);
      }
    }
  }
}

/// encode_fixed_u64's definition for one value: std::round (halves away
/// from zero) of x * 2^frac_bits as a two's-complement word, or nothing
/// outside |x * 2^frac_bits| < 2^63.
std::optional<std::uint64_t> encode_reference(float x, unsigned frac_bits) {
  const double scaled =
      static_cast<double>(x) * std::ldexp(1.0, static_cast<int>(frac_bits));
  if (!(std::fabs(scaled) < std::ldexp(1.0, 63))) return std::nullopt;
  return static_cast<std::uint64_t>(
      static_cast<std::int64_t>(std::round(scaled)));
}

/// Runs `t`'s encode over `x` and checks it against encode_reference:
/// every word before the returned index, that index being the first
/// out-of-domain value (or x.size()), and no word written from it on.
void expect_encode_matches_reference(const kernels::KernelTable& t,
                                     std::span<const float> x,
                                     unsigned frac_bits) {
  constexpr std::uint64_t kUntouched = 0x5a5a5a5a5a5a5a5aULL;
  std::vector<std::uint64_t> out(x.size() + 1, kUntouched);
  const std::size_t bad =
      t.encode_fixed_u64(x.data(), frac_bits, out.data(), x.size());
  std::size_t want_bad = x.size();
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!encode_reference(x[i], frac_bits)) {
      want_bad = i;
      break;
    }
  }
  ASSERT_EQ(bad, want_bad);
  for (std::size_t i = 0; i < bad; ++i) {
    ASSERT_EQ(out[i], *encode_reference(x[i], frac_bits))
        << "word " << i << " x=" << x[i];
  }
  for (std::size_t i = bad; i < out.size(); ++i) {
    ASSERT_EQ(out[i], kUntouched) << "word " << i << " written";
  }
}

TEST_F(SimdParity, EncodeFixedU64FindsFirstBadLaneOnEveryArm) {
  // NaN, ±Inf and ±2^(63 - frac_bits) — the first magnitude outside the
  // domain — at every lane position, tail included, with the in-domain
  // edge 2^(63 - frac_bits) rounded down one ulp alongside. The encode
  // must return that position, write the words before it and nothing
  // from it on.
  const float nan = kNan;
  Rng rng(27);
  for (const kernels::KernelTable* t : every_width()) {
    for (unsigned frac_bits : {1u, 24u, 40u}) {
      const float edge = std::ldexp(1.0f, 63 - static_cast<int>(frac_bits));
      const float inside = std::nextafter(edge, 0.0f);
      for (std::size_t n : mask_lengths()) {
        std::vector<float> x = random_vec(n, rng);
        if (n > 2) {
          x[n / 2] = inside;
          x[n - 1] = -inside;
        }
        SCOPED_TRACE(::testing::Message() << t->name << "/" << t->gemm_width
                                          << " frac_bits=" << frac_bits
                                          << " n=" << n);
        expect_encode_matches_reference(*t, x, frac_bits);
        if (::testing::Test::HasFatalFailure()) return;
        // Every position of the short lengths; the first, and the last
        // full vector and tail, of the long ones.
        std::vector<std::size_t> positions;
        for (std::size_t at = 0; at < n; ++at) {
          if (n <= 17 || at == 0 || at + 17 >= n) positions.push_back(at);
        }
        for (float bad : {nan, kInf, -kInf, edge, -edge}) {
          for (std::size_t at : positions) {
            SCOPED_TRACE(::testing::Message() << "bad=" << bad << " at=" << at);
            std::vector<float> y = x;
            y[at] = bad;
            expect_encode_matches_reference(*t, y, frac_bits);
            if (::testing::Test::HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST_F(SimdParity, EncodeFixedU64SweepMatchesStdRoundOnEveryArm) {
  // A strided sweep of every float bit pattern (both signs, denormals,
  // every exponent, NaN/Inf payloads) through each arm's batched encode,
  // in 4,096-pattern batches; after an out-of-domain pattern the batch
  // resumes past it, so every pattern is either encoded or reported.
  constexpr std::uint64_t kStride = 4099;
  std::vector<float> batch;
  for (const kernels::KernelTable* t : every_width()) {
    for (unsigned frac_bits : {1u, 24u, 40u}) {
      SCOPED_TRACE(::testing::Message() << t->name << "/" << t->gemm_width
                                        << " frac_bits=" << frac_bits);
      std::size_t encoded = 0, rejected = 0;
      std::vector<std::uint64_t> out;
      for (std::uint64_t b0 = 0; b0 < (std::uint64_t{1} << 32);
           b0 += 4096 * kStride) {
        batch.clear();
        for (std::uint64_t b = b0; b < (std::uint64_t{1} << 32) &&
                                   batch.size() < 4096;
             b += kStride) {
          batch.push_back(bits_float(static_cast<std::uint32_t>(b)));
        }
        out.resize(batch.size());
        for (std::size_t i = 0; i < batch.size();) {
          const std::size_t n = batch.size() - i;
          const std::size_t bad = t->encode_fixed_u64(
              batch.data() + i, frac_bits, out.data() + i, n);
          for (std::size_t j = i; j < i + bad; ++j) {
            const std::optional<std::uint64_t> want =
                encode_reference(batch[j], frac_bits);
            ASSERT_TRUE(want.has_value()) << "encoded x=" << batch[j];
            ASSERT_EQ(out[j], *want) << "x=" << batch[j];
          }
          encoded += bad;
          if (bad == n) break;
          ASSERT_FALSE(encode_reference(batch[i + bad], frac_bits))
              << "rejected x=" << batch[i + bad];
          ++rejected;
          i += bad + 1;
        }
      }
      EXPECT_GT(encoded, 0u);
      EXPECT_GT(rejected, 0u);
    }
  }
}

/// Inverse of Rng::temper, so a test can pick the tempered word — and so
/// the polar coordinate — a raw state word yields.
std::uint64_t untemper(std::uint64_t z) {
  z ^= z >> 43;                          // a shift of >= 32 bits undoes
  z ^= (z << 37) & kernels::kMtTemperC;  // itself
  std::uint64_t y = z;
  for (int i = 0; i < 4; ++i) y = z ^ ((y << 17) & kernels::kMtTemperB);
  z = y;
  for (int i = 0; i < 3; ++i) y = z ^ ((y >> 29) & kernels::kMtTemperD);
  return y;
}

struct PolarRun {
  std::size_t accepted = 0;
  std::size_t pairs_read = 0;
  std::vector<double> y, r2;  // want + 1 entries, the last a guard
};

PolarRun run_polar_pairs(const kernels::KernelTable& t,
                         std::span<const std::uint64_t> words,
                         std::size_t want) {
  PolarRun run;
  run.y.assign(want + 1, -7.0);
  run.r2.assign(want + 1, -7.0);
  kernels::PolarPairsArgs g;
  g.words = words.data();
  g.pairs = words.size() / 2;
  g.want = want;
  g.y = run.y.data();
  g.r2 = run.r2.data();
  run.accepted = t.polar_pairs(g, &run.pairs_read);
  return run;
}

std::vector<std::uint64_t> double_bits(std::span<const double> v) {
  std::vector<std::uint64_t> out;
  for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

TEST_F(SimdParity, RngEngineEntriesMatchScalarOnEveryArm) {
  // Rng's twist and polar step are exact: every arm must give the scalar
  // arm's state words, and its accepted count, pairs read and y/r2 bits,
  // for every pair count through two vectors and a whole state, every
  // stop count, and the polar method's edge words among random ones.
  Rng rng(53);
  std::vector<std::uint64_t> state(kernels::kMtWords);
  for (auto& w : state) w = rng.next_u64();
  for (const kernels::KernelTable* t : every_width()) {
    SCOPED_TRACE(t->gemm_width);
    std::vector<std::uint64_t> ref = state, got = state;
    for (int twist = 0; twist < 3; ++twist) {
      kernels::scalar_table().mt_regenerate(ref.data());
      t->mt_regenerate(got.data());
      ASSERT_EQ(ref, got) << "twist " << twist;
    }
  }

  // Tempered edge words: u = 0 (coordinate -1), u = 1/2 (0), u = 3/4,
  // and the words that round to 2^64, which clamp to 1 - 2^-53.
  const std::uint64_t edges[] = {0, 1ULL << 63, 3ULL << 62, ~0ULL,
                                 ~0ULL - 1023};
  for (const std::uint64_t e : edges) ASSERT_EQ(Rng::temper(untemper(e)), e);
  std::vector<std::uint64_t> words(2 * (kernels::kMtWords / 2 + 17));
  for (auto& w : words) {
    w = rng.bernoulli(0.3) ? untemper(edges[rng.uniform_int(0, 4)])
                           : rng.next_u64();
  }
  std::vector<std::size_t> pair_counts;
  for (std::size_t p = 1; p <= 17; ++p) pair_counts.push_back(p);
  pair_counts.push_back(kernels::kMtWords / 2);
  pair_counts.push_back(words.size() / 2);
  for (const std::size_t pairs : pair_counts) {
    const std::span<const std::uint64_t> in(words.data(), 2 * pairs);
    for (const std::size_t want : {1, 2, 3, 5, 7, 8, 9, 16, 64, 400}) {
      SCOPED_TRACE(::testing::Message() << "pairs=" << pairs
                                        << " want=" << want);
      const PolarRun ref = run_polar_pairs(kernels::scalar_table(), in, want);
      for (const kernels::KernelTable* t : every_width()) {
        SCOPED_TRACE(t->gemm_width);
        const PolarRun got = run_polar_pairs(*t, in, want);
        ASSERT_EQ(got.accepted, ref.accepted);
        ASSERT_EQ(got.pairs_read, ref.pairs_read);
        ASSERT_EQ(double_bits(got.y), double_bits(ref.y));
        ASSERT_EQ(double_bits(got.r2), double_bits(ref.r2));
      }
    }
  }

  // The accept test's edges on every arm: r2 = 1 passes, r2 = 0 and
  // r2 = 2 do not.
  const std::uint64_t minus_one = untemper(0), zero = untemper(1ULL << 63);
  const std::vector<std::uint64_t> edge_pairs = {zero, zero,      minus_one,
                                                 minus_one, minus_one, zero};
  for (const kernels::KernelTable* t : every_width()) {
    SCOPED_TRACE(t->gemm_width);
    const PolarRun run = run_polar_pairs(*t, edge_pairs, 3);
    ASSERT_EQ(run.accepted, 1u);
    EXPECT_EQ(run.pairs_read, 3u);
    EXPECT_EQ(run.y[0], 0.0);
    EXPECT_EQ(run.r2[0], 1.0);
  }
}

TEST(SimdDispatch, GemmWidthNamesTheActiveTile) {
  // tools/check.sh prints this line, so a CI log shows which GEMM tile
  // the dispatched arm ran.
  const char* width = simd::gemm_width();
  std::printf("GEMM tile: %s (dispatched arm: %s)\n", width,
              simd::isa_name(simd::active_isa()));
  if (simd::active_isa() == simd::Isa::kScalar) {
    EXPECT_STREQ(width, "scalar");
  } else {
    EXPECT_TRUE(std::strcmp(width, "avx2") == 0 ||
                std::strcmp(width, "avx512f") == 0)
        << width;
  }
}

TEST_F(SimdParity, ForcedIsaIsObservable) {
  ASSERT_TRUE(simd::force_isa(simd::Isa::kVector));
  EXPECT_EQ(simd::active_isa(), simd::Isa::kVector);
  EXPECT_STREQ(simd::isa_name(simd::active_isa()), "avx2");
  ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  EXPECT_STREQ(simd::isa_name(simd::active_isa()), "scalar");
}

}  // namespace
}  // namespace baffle
