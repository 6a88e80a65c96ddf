// Mlp::compute_gradients against the row-major oracle
// (support/train_oracle.hpp): byte for byte on every kernel arm, on both
// output-layer paths, for batches either side of a 16-sample block, and
// for logits that hold NaN, ±Inf and spreads past 88.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "nn/mlp.hpp"
#include "support/predict_oracle.hpp"
#include "support/train_oracle.hpp"
#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"

namespace baffle {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// The arms the step runs on: the scalar table and, unless
/// BAFFLE_FORCE_SCALAR pins that one, the AVX2 table and the dispatched
/// table when it has the AVX-512F tiles.
std::vector<const kernels::KernelTable*> step_tables() {
  std::vector<const kernels::KernelTable*> tables{&kernels::scalar_table()};
  if (simd::scalar_forced_by_env()) return tables;
  if (const kernels::KernelTable* ymm = kernels::avx2_table_for_testing()) {
    tables.push_back(ymm);
  }
  const kernels::KernelTable* vec = kernels::vector_table();
  if (vec != nullptr && std::strcmp(vec->gemm_width, "avx512f") == 0) {
    tables.push_back(vec);
  }
  return tables;
}

class TrainStep : public ::testing::Test {
 protected:
  void TearDown() override { simd::reset_isa(); }
};

/// What the logits of one row of a test batch hold.
enum class Logits { kPlain, kWideSpread, kInfinite, kNan };

std::uint32_t bits(float x) {
  std::uint32_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

/// `ref` and `got` hold the same floats bit for bit, except that a NaN
/// matches any NaN: where two NaNs meet in one instruction x86 keeps
/// the first operand's payload, and the class-major GEMMs multiply the
/// same pairs with their operands swapped.
::testing::AssertionResult same_bytes(std::span<const float> ref,
                                      std::span<const float> got) {
  if (ref.size() != got.size()) {
    return ::testing::AssertionFailure() << "lengths differ";
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (std::isnan(ref[i]) && std::isnan(got[i])) continue;
    if (bits(ref[i]) != bits(got[i])) {
      return ::testing::AssertionFailure()
             << "first differing float at index " << i << ": " << got[i]
             << " vs " << ref[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// A batch of `rows` samples and a model whose logits on it hold what
/// `kind` names in sample `row`, checked on the oracle's logits.
void make_case(Mlp& model, Matrix& x, std::size_t rows, Logits kind,
               Rng& rng) {
  model.init(rng);
  for (float& b : model.layers().back().bias()) {
    b = static_cast<float>(rng.normal(0.0, 0.5));
  }
  x = Matrix(rows, model.input_dim());
  for (float& v : x.flat()) v = static_cast<float>(rng.normal());
  const std::size_t row = rows / 2;
  Dense& output = model.layers().back();
  switch (kind) {
    case Logits::kPlain:
      break;
    case Logits::kWideSpread:
      // Spreads past 88 in every sample send lanes to std::exp.
      output.bias().front() += 70.0f;
      output.bias().back() -= 70.0f;
      break;
    case Logits::kInfinite:
      // Huge positive class-0 weights overflow that logit to +Inf in a
      // sample of large positive inputs (its terms are all >= 0, so no
      // NaN) and leave it huge but finite in the others; the last
      // class's bias sends its logit to −Inf in every sample.
      for (std::size_t p = 0; p < output.in_dim(); ++p) {
        output.weights().at(p, 0) = 1e35f;
      }
      for (float& v : x.row(row)) v = std::abs(v) * 1e4f;
      output.bias().back() = -kInf;
      break;
    case Logits::kNan:
      x.at(row, 0) = kNan;
      break;
  }
  kernels::pin_table_for_testing(kernels::scalar_table());
  const Matrix logits = oracle_logits(model, x);
  bool nan = false, inf = false;
  float lo = kInf, hi = -kInf;
  for (float z : logits.row(row)) {
    nan = nan || std::isnan(z);
    inf = inf || std::isinf(z);
    lo = std::min(lo, z);
    hi = std::max(hi, z);
  }
  ASSERT_EQ(nan, kind == Logits::kNan);
  ASSERT_EQ(inf, kind == Logits::kInfinite);
  if (kind == Logits::kWideSpread) {
    ASSERT_GT(hi - lo, 88.0f);
  }
}

TEST_F(TrainStep, MatchesTheRowMajorOracleBitForBit) {
  // The experiments' models (10 classes run class-major, 62 row-major),
  // a model with two hidden layers and a linear one.
  const std::vector<MlpConfig> archs = {
      {{32, 64, 10}}, {{48, 96, 62}}, {{5, 8, 6, 4}}, {{3, 2}}};
  const std::vector<const kernels::KernelTable*> tables = step_tables();
  Rng rng(61);
  for (const MlpConfig& arch : archs) {
    for (std::size_t batch : {1, 15, 16, 17, 20, 32, 33, 64}) {
      for (Logits kind : {Logits::kPlain, Logits::kWideSpread,
                          Logits::kInfinite, Logits::kNan}) {
        SCOPED_TRACE(::testing::Message()
                     << "classes=" << arch.layer_dims.back()
                     << " layers=" << arch.layer_dims.size() - 1
                     << " batch=" << batch
                     << " kind=" << static_cast<int>(kind));
        Mlp model(arch);
        Matrix x;
        make_case(model, x, batch, kind, rng);
        if (HasFatalFailure()) return;
        std::vector<int> labels(batch);
        for (int& y : labels) {
          y = static_cast<int>(rng.uniform_int(
              0, static_cast<std::int64_t>(arch.layer_dims.back()) - 1));
        }
        for (const kernels::KernelTable* t : tables) {
          SCOPED_TRACE(t->gemm_width);
          kernels::pin_table_for_testing(*t);
          Mlp oracle = model;
          oracle_gradients(oracle, x, labels);
          Mlp step = model;
          TrainWorkspace ws;
          step.compute_gradients(x, labels, ws);
          ASSERT_TRUE(same_bytes(flat_gradients(oracle),
                                 flat_gradients(step)));
        }
      }
    }
  }
}

TEST_F(TrainStep, OutputLayerWidthPicksThePath) {
  // An output layer no wider than one 16-lane panel leaves the logits'
  // gradient class-major (classes x batch), a wider one row-major.
  constexpr std::size_t kBatch = 20;
  Rng rng(62);
  for (std::size_t classes : {1, 2, 10, 15, 16, 17, 32, 62}) {
    SCOPED_TRACE(::testing::Message() << "classes=" << classes);
    Mlp model(MlpConfig{{8, 12, classes}});
    model.init(rng);
    Matrix x(kBatch, 8);
    for (float& v : x.flat()) v = static_cast<float>(rng.normal());
    std::vector<int> labels(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i) {
      labels[i] = static_cast<int>(i % classes);
    }
    TrainWorkspace ws;
    model.compute_gradients(x, labels, ws);
    const bool class_major = classes <= 16;
    EXPECT_EQ(ws.dlogits.rows(), class_major ? classes : kBatch);
    EXPECT_EQ(ws.dlogits.cols(), class_major ? kBatch : classes);
    EXPECT_EQ(ws.in_t.rows(), class_major ? 12u : 0u);
  }
}

}  // namespace
}  // namespace baffle
