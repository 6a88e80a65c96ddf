#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace baffle {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (float& x : m.flat()) x = static_cast<float>(rng.normal());
  return m;
}

/// Naive reference GEMM for cross-checking the kernels.
Matrix naive_ab(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < a.cols(); ++p) {
        acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
      }
      out.at(i, j) = static_cast<float>(acc);
    }
  }
  return out;
}

void expect_matrix_near(const Matrix& a, const Matrix& b, float tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(a.at(i, j), b.at(i, j), tol) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(Gemm, AbMatchesNaive) {
  Rng rng(1);
  const Matrix a = random_matrix(7, 5, rng);
  const Matrix b = random_matrix(5, 9, rng);
  Matrix out(7, 9);
  gemm_ab(a, b, out);
  expect_matrix_near(out, naive_ab(a, b), 1e-4f);
}

TEST(Gemm, AtbMatchesNaive) {
  Rng rng(2);
  const Matrix a = random_matrix(6, 4, rng);  // aᵀ is 4x6
  const Matrix b = random_matrix(6, 3, rng);
  Matrix out(4, 3);
  gemm_atb(a, b, out);
  // Build aᵀ explicitly.
  Matrix at(4, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 4; ++j) at.at(j, i) = a.at(i, j);
  }
  expect_matrix_near(out, naive_ab(at, b), 1e-4f);
}

TEST(Gemm, AbtMatchesNaive) {
  Rng rng(3);
  const Matrix a = random_matrix(5, 4, rng);
  const Matrix b = random_matrix(7, 4, rng);  // bᵀ is 4x7
  Matrix out(5, 7);
  gemm_abt(a, b, out);
  Matrix bt(4, 7);
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j < 4; ++j) bt.at(j, i) = b.at(i, j);
  }
  expect_matrix_near(out, naive_ab(a, bt), 1e-4f);
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(2, 3), b(4, 2), out(2, 2);
  EXPECT_THROW(gemm_ab(a, b, out), std::invalid_argument);
  Matrix b2(3, 2), out_bad(3, 2);
  EXPECT_THROW(gemm_ab(a, b2, out_bad), std::invalid_argument);
}

TEST(Gemm, IdentityIsNoop) {
  Rng rng(4);
  const Matrix a = random_matrix(4, 4, rng);
  Matrix eye(4, 4);
  for (std::size_t i = 0; i < 4; ++i) eye.at(i, i) = 1.0f;
  Matrix out(4, 4);
  gemm_ab(a, eye, out);
  expect_matrix_near(out, a, 1e-6f);
}

TEST(Gemm, NanInputPropagatesDespiteZeroOperand) {
  // A diverged model produces NaN activations; a sparsity shortcut that
  // skips zero A entries would silently mask 0 * NaN terms. All three
  // kernels must let the NaN through.
  Matrix a = Matrix::from_rows(2, 2, {0.0f, 1.0f, 1.0f, 0.0f});
  Matrix b = Matrix::from_rows(2, 2, {NAN, 1.0f, 1.0f, 1.0f});
  Matrix out(2, 2);
  gemm_ab(a, b, out);
  // Row 0 of A is (0, 1): the 0 * NAN term must still poison out(0, 0).
  EXPECT_TRUE(std::isnan(out.at(0, 0)));
  Matrix a_nan = Matrix::from_rows(2, 2, {NAN, 0.0f, 0.0f, 1.0f});
  Matrix ones = Matrix::from_rows(2, 2, {1.0f, 1.0f, 1.0f, 1.0f});
  gemm_ab(a_nan, ones, out);
  EXPECT_TRUE(std::isnan(out.at(0, 0)));
  EXPECT_TRUE(std::isnan(out.at(0, 1)));
  gemm_atb(a_nan, ones, out);
  EXPECT_TRUE(std::isnan(out.at(0, 0)));
  gemm_abt(a_nan, ones, out);
  EXPECT_TRUE(std::isnan(out.at(0, 0)));
}

TEST(Gemm, LargeMultipliesMatchNaive) {
  // Above the parallel/blocking threshold (>= 2^20 MACs) the kernels
  // take the cache-blocked row-parallel path; verify against the naive
  // reference on every transpose configuration.
  Rng rng(7);
  const std::size_t m = 96, k = 128, n = 112;  // 96*128*112 > 2^20
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  Matrix out(m, n);
  gemm_ab(a, b, out);
  expect_matrix_near(out, naive_ab(a, b), 5e-3f);

  const Matrix a2 = random_matrix(k, m, rng);  // a2ᵀ is m x k
  Matrix out2(m, n);
  gemm_atb(a2, b, out2);
  Matrix a2t(m, k);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < m; ++j) a2t.at(j, i) = a2.at(i, j);
  }
  expect_matrix_near(out2, naive_ab(a2t, b), 5e-3f);

  const Matrix b2 = random_matrix(n, k, rng);  // b2ᵀ is k x n
  Matrix out3(m, n);
  gemm_abt(a, b2, out3);
  Matrix b2t(k, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) b2t.at(j, i) = b2.at(i, j);
  }
  expect_matrix_near(out3, naive_ab(a, b2t), 5e-3f);
}

/// Replaces a few entries with −0, ±Inf and NaN. The −0s matter where
/// k == 1: a fold that started from the first product instead of +0
/// would leave −0 in the output.
void add_specials(std::span<float> v, Rng& rng) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float specials[] = {-0.0f, -0.0f, kInf, -kInf,
                            std::numeric_limits<float>::quiet_NaN()};
  for (float& x : v) {
    if (rng.uniform_int(0, 39) == 0) {
      x = specials[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(std::size(specials)) - 1))];
    }
  }
}

Matrix special_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m = random_matrix(r, c, rng);
  add_specials(m.flat(), rng);
  return m;
}

/// The textbook GEMM the scalar arm must equal bit for bit: per output
/// element, the fold over p in order from +0 with each product rounded
/// before its add (this file is built without FMA codegen), then one
/// bias add, then keep-unless-negative. a(i, p) and b(p, j) read the
/// operands in whatever layout the entry point takes them.
template <typename A, typename B>
Matrix textbook_gemm(std::size_t m, std::size_t n, std::size_t k, A a, B b,
                     const float* bias, bool relu) {
  Matrix out(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        const float prod = a(i, p) * b(p, j);
        acc += prod;
      }
      if (bias != nullptr) acc += bias[j];
      if (relu && acc < 0.0f) acc = 0.0f;
      out.at(i, j) = acc;
    }
  }
  return out;
}

/// Equal bytes, except that a NaN matches any NaN (payloads are free).
void expect_same_floats(const Matrix& want, const Matrix& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const float w = want.flat()[i], g = got.flat()[i];
    if (std::isnan(w)) {
      ASSERT_TRUE(std::isnan(g)) << "flat index " << i << ": " << g;
      continue;
    }
    std::uint32_t wb, gb;
    std::memcpy(&wb, &w, sizeof(wb));
    std::memcpy(&gb, &g, sizeof(gb));
    ASSERT_EQ(gb, wb) << "flat index " << i << ": " << g << " vs " << w;
  }
}

TEST(Gemm, ScalarArmMatchesTextbookFoldBitForBit) {
  // Pins the scalar table, so this runs on every CPU and under
  // BAFFLE_FORCE_SCALAR alike.
  struct ResetIsa {
    ~ResetIsa() { simd::reset_isa(); }
  } reset;
  kernels::pin_table_for_testing(kernels::scalar_table());
  const std::size_t dims[] = {1, 15, 16, 17, 33, 64};
  Rng rng(17);
  for (std::size_t m : dims) {
    for (std::size_t n : dims) {
      for (std::size_t k : dims) {
        SCOPED_TRACE(::testing::Message()
                     << "m=" << m << " n=" << n << " k=" << k);
        const Matrix a = special_matrix(m, k, rng);
        const Matrix at = special_matrix(k, m, rng);
        const Matrix b = special_matrix(k, n, rng);
        const Matrix bt = special_matrix(n, k, rng);
        std::vector<float> bias(n);
        for (float& x : bias) x = static_cast<float>(rng.normal());
        add_specials(bias, rng);
        const auto a_ik = [&](std::size_t i, std::size_t p) {
          return a.at(i, p);
        };
        const auto at_ik = [&](std::size_t i, std::size_t p) {
          return at.at(p, i);
        };
        const auto b_kj = [&](std::size_t p, std::size_t j) {
          return b.at(p, j);
        };
        const auto bt_kj = [&](std::size_t p, std::size_t j) {
          return bt.at(j, p);
        };
        Matrix got(m, n);
        gemm_ab(a, b, got);
        expect_same_floats(
            textbook_gemm(m, n, k, a_ik, b_kj, nullptr, false), got);
        for (bool relu : {false, true}) {
          SCOPED_TRACE(::testing::Message() << "gemm_ab_bias relu=" << relu);
          gemm_ab_bias(a, b, bias, relu, got);
          expect_same_floats(
              textbook_gemm(m, n, k, a_ik, b_kj, bias.data(), relu), got);
        }
        gemm_atb(at, b, got);
        expect_same_floats(
            textbook_gemm(m, n, k, at_ik, b_kj, nullptr, false), got);
        gemm_abt(a, bt, got);
        expect_same_floats(
            textbook_gemm(m, n, k, a_ik, bt_kj, nullptr, false), got);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

/// The evaluation engine's argmax (`t.argmax_margin_panel`) over the
/// rows of `m`, m.rows() <= kPanelCols: row r is laid out as column r
/// of one packed panel, whose column argmax is then each row's first
/// maximum.
std::vector<std::size_t> panel_argmax_rows(const kernels::KernelTable& t,
                                           const Matrix& m) {
  AlignedFloatVec panel(m.cols() * kernels::kPanelCols, 0.0f);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      panel[c * kernels::kPanelCols + r] = m.at(r, c);
    }
  }
  std::vector<std::size_t> out(m.rows(), 99);
  t.argmax_margin_panel({panel.data(), m.cols(), m.rows(), out.data(),
                         /*margins=*/nullptr});
  return out;
}

/// The scalar arm, and the vector arm where this CPU runs it.
std::vector<const kernels::KernelTable*> kernel_arms() {
  std::vector<const kernels::KernelTable*> arms{&kernels::scalar_table()};
  if (const kernels::KernelTable* vec = kernels::vector_table()) {
    arms.push_back(vec);
  }
  return arms;
}

TEST(RowOps, ArgmaxRowsInto) {
  const Matrix m = Matrix::from_rows(3, 3, {1, 5, 2, 9, 0, 1, 2, 2, 7});
  for (const kernels::KernelTable* t : kernel_arms()) {
    EXPECT_EQ(panel_argmax_rows(*t, m), (std::vector<std::size_t>{1, 0, 2}));
  }
}

// The row bias is gemm_ab_bias's epilogue: with B = I its output is A
// plus the bias on every row.
TEST(RowOps, AddRowBias) {
  const Matrix a(2, 3, 1.0f);
  Matrix eye(3, 3);
  for (std::size_t i = 0; i < 3; ++i) eye.at(i, i) = 1.0f;
  const std::vector<float> bias{1.0f, 2.0f, 3.0f};
  Matrix out(2, 3);
  gemm_ab_bias(a, eye, bias, /*relu=*/false, out);
  EXPECT_EQ(out.at(0, 0), 2.0f);
  EXPECT_EQ(out.at(1, 2), 4.0f);
}

TEST(RowOps, AddRowBiasLengthMismatch) {
  const Matrix a(2, 3), b(3, 3);
  Matrix out(2, 3);
  const std::vector<float> bias{1.0f};
  EXPECT_THROW(gemm_ab_bias(a, b, bias, /*relu=*/false, out),
               std::invalid_argument);
}

TEST(RowOps, ColSum) {
  const Matrix m = Matrix::from_rows(2, 2, {1, 2, 3, 4});
  std::vector<float> out(2);
  col_sum(m, out);
  EXPECT_EQ(out[0], 4.0f);
  EXPECT_EQ(out[1], 6.0f);
}

TEST(Argmax, PerRow) {
  const Matrix m = Matrix::from_rows(2, 3, {1, 5, 2, 7, 0, 3});
  for (const kernels::KernelTable* t : kernel_arms()) {
    const std::vector<std::size_t> idx = panel_argmax_rows(*t, m);
    EXPECT_EQ(idx[0], 1u);
    EXPECT_EQ(idx[1], 0u);
  }
}

TEST(VectorOps, Axpy) {
  std::vector<float> x{1, 2}, y{10, 20};
  axpy(2.0f, x, y);
  EXPECT_EQ(y[0], 12.0f);
  EXPECT_EQ(y[1], 24.0f);
}

TEST(VectorOps, AxpyLengthMismatch) {
  std::vector<float> x{1}, y{1, 2};
  EXPECT_THROW(axpy(1.0f, x, y), std::invalid_argument);
}

TEST(VectorOps, Scale) {
  std::vector<float> x{2, -4};
  scale(x, 0.5f);
  EXPECT_EQ(x[0], 1.0f);
  EXPECT_EQ(x[1], -2.0f);
}

TEST(VectorOps, DotAndNorms) {
  const std::vector<float> a{3, 4}, b{1, 0};
  EXPECT_EQ(l2_norm(a), 5.0f);
  EXPECT_EQ(l2_distance(a, b), std::sqrt(4.0f + 16.0f));
  EXPECT_EQ(squared_l2_distance(a, b), 20.0f);
  // The dot a·b = 3 over the norms 5 and 1.
  EXPECT_EQ(cosine_similarity(a, b), 3.0f / 5.0f);
}

TEST(VectorOps, CosineSimilarity) {
  const std::vector<float> a{1, 0}, b{0, 1}, c{2, 0};
  EXPECT_NEAR(cosine_similarity(a, b), 0.0f, 1e-6f);
  EXPECT_NEAR(cosine_similarity(a, c), 1.0f, 1e-6f);
  const std::vector<float> zero{0, 0};
  EXPECT_EQ(cosine_similarity(a, zero), 0.0f);
}

TEST(VectorOps, SubtractAdd) {
  const std::vector<float> a{5, 7}, b{2, 3};
  EXPECT_EQ(subtract(a, b), (std::vector<float>{3, 4}));
  EXPECT_EQ(add(a, b), (std::vector<float>{7, 10}));
}

TEST(VectorOps, DotAccumulatesInDouble) {
  // cosine_similarity's dot a·b = 1 accumulates in double. In fp32 the
  // leading 1 would vanish into the first 1e8 (the float spacing there
  // is 8) and the alternating ±1e8 terms would cancel to a dot of 0.
  std::vector<float> a{1.0f}, b{1.0f};
  for (int i = 0; i < 1000; ++i) {
    a.push_back(i % 2 == 0 ? 1e8f : -1e8f);
    b.push_back(1.0f);
  }
  const float cos = cosine_similarity(a, b);
  EXPECT_GT(cos, 0.0f);
  EXPECT_EQ(cos, 1.0f / (l2_norm(a) * l2_norm(b)));
}

// The reductions only the robust-aggregation baselines and the tables'
// ± columns call are one loop each: the kernel arm moves none of their
// bits.
class Primitives : public ::testing::Test {
 protected:
  void TearDown() override { simd::reset_isa(); }
};

TEST_F(Primitives, ReductionsAreArmIndependent) {
  if (simd::scalar_forced_by_env()) {
    GTEST_SKIP() << "BAFFLE_FORCE_SCALAR pins the scalar arm";
  }
  if (!simd::isa_available(simd::Isa::kVector)) {
    GTEST_SKIP() << "no vector arm on this build/CPU to compare against";
  }
  const char* const names[] = {"l2_norm", "l2_distance", "squared_l2_distance",
                               "cosine_similarity", "mean", "stddev"};
  const auto bits = [](std::span<const float> a, std::span<const float> b,
                       std::span<const double> xs) {
    std::vector<std::uint64_t> out;
    for (const float v : {l2_norm(a), l2_distance(a, b),
                          squared_l2_distance(a, b),
                          cosine_similarity(a, b)}) {
      out.push_back(std::bit_cast<std::uint32_t>(v));
    }
    if (!xs.empty()) {  // mean and stddev reject an empty input
      out.push_back(std::bit_cast<std::uint64_t>(mean(xs)));
      out.push_back(std::bit_cast<std::uint64_t>(stddev(xs)));
    }
    return out;
  };
  Rng rng(26);
  for (const std::size_t n : {0, 1, 3, 4, 31, 32, 33, 65536}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    std::vector<float> a(n), b(n);
    std::vector<double> xs(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(rng.normal());
      b[i] = static_cast<float>(rng.normal());
      xs[i] = rng.normal(3.0, 2.0);
    }
    ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
    const std::vector<std::uint64_t> scalar = bits(a, b, xs);
    ASSERT_TRUE(simd::force_isa(simd::Isa::kVector));
    const std::vector<std::uint64_t> vector = bits(a, b, xs);
    ASSERT_EQ(vector.size(), scalar.size());
    for (std::size_t i = 0; i < scalar.size(); ++i) {
      EXPECT_EQ(vector[i], scalar[i]) << names[i];
    }
  }
}

}  // namespace
}  // namespace baffle
