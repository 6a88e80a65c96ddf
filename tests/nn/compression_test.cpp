#include "nn/compression.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace baffle {
namespace {

ParamVec random_params(std::size_t n, Rng& rng) {
  ParamVec out(n);
  for (auto& x : out) x = static_cast<float>(rng.normal());
  return out;
}

TEST(Compression, FullKeepRoundTripsWithinQuantization) {
  Rng rng(1);
  const ParamVec params = random_params(500, rng);
  const auto compressed = compress_topk(params, 1.0);
  const ParamVec restored = decompress_topk(compressed);
  ASSERT_EQ(restored.size(), params.size());
  // 8-bit quantization over the value range.
  float range = 0.0f;
  for (float x : params) range = std::max(range, std::abs(x));
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_NEAR(restored[i], params[i], 2.0f * range / 255.0f + 1e-6f);
  }
}

TEST(Compression, KeepsLargestMagnitudeEntries) {
  ParamVec params(100, 0.01f);
  params[7] = 5.0f;
  params[42] = -4.0f;
  const ParamVec restored =
      decompress_topk(compress_topk(params, 0.02));  // keep 2 entries
  EXPECT_NEAR(restored[7], 5.0f, 0.1f);
  EXPECT_NEAR(restored[42], -4.0f, 0.1f);
  EXPECT_EQ(restored[0], 0.0f);  // dropped
}

TEST(Compression, AchievesTargetRatio) {
  Rng rng(2);
  const ParamVec params = random_params(10000, rng);
  const auto compressed = compress_topk(params, 0.05);
  // 5% kept as (4-byte delta + 1-byte code) vs 4 bytes each: ~16x.
  EXPECT_GT(compressed.compression_ratio(), 10.0);
}

TEST(Compression, TenPercentKeepsCosineDirection) {
  // The paper's 10x claim: a heavily compressed model must still point
  // in the same direction (validation uses predictions, which are
  // dominated by large weights).
  Rng rng(3);
  // Heavy-tailed weights (realistic for trained nets).
  ParamVec params(5000);
  for (auto& x : params) {
    const double u = rng.normal();
    x = static_cast<float>(u * u * u);
  }
  const ParamVec restored =
      decompress_topk(compress_topk(params, 0.10));
  EXPECT_GT(cosine_similarity(params, restored), 0.9f);
}

TEST(Compression, RejectsBadArguments) {
  const ParamVec params(10, 1.0f);
  EXPECT_THROW(compress_topk(params, 0.0), std::invalid_argument);
  EXPECT_THROW(compress_topk(params, 1.5), std::invalid_argument);
  EXPECT_THROW(compress_topk({}, 0.5), std::invalid_argument);
}

TEST(Compression, CorruptedBytesRejected) {
  Rng rng(4);
  auto compressed = compress_topk(random_params(100, rng), 0.2);
  compressed.bytes[0] ^= 0xFF;
  EXPECT_THROW(decompress_topk(compressed), std::runtime_error);
}

TEST(Compression, TruncationRejected) {
  Rng rng(5);
  auto compressed = compress_topk(random_params(100, rng), 0.2);
  compressed.bytes.resize(compressed.bytes.size() - 3);
  EXPECT_THROW(decompress_topk(compressed), std::exception);
}

TEST(Compression, ConstantVectorHandled) {
  const ParamVec params(50, 2.5f);  // zero range
  const ParamVec restored = decompress_topk(compress_topk(params, 1.0));
  for (float x : restored) EXPECT_FLOAT_EQ(x, 2.5f);
}

TEST(Compression, TinyVectorsRoundTrip) {
  // A handful of parameters: the magnitude selection and the codec
  // must keep every one of them at keep_fraction 1.
  for (std::size_t n : {1u, 2u, 7u}) {
    Rng rng(10 + n);
    const ParamVec params = random_params(n, rng);
    const ParamVec restored = decompress_topk(compress_topk(params, 1.0));
    ASSERT_EQ(restored.size(), n);
    float range = 0.0f;
    for (float x : params) range = std::max(range, std::abs(x));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(restored[i], params[i], 2.0f * range / 255.0f + 1e-6f)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(Compression, DenormalValuesHandled) {
  // Denormal magnitudes must neither crash the quantizer nor win the
  // top-k ranking over normal-range entries.
  ParamVec params(20, std::numeric_limits<float>::denorm_min());
  params[3] = 1.0f;
  params[11] = -2.0f;
  const ParamVec restored =
      decompress_topk(compress_topk(params, 0.1));  // keep 2
  EXPECT_NEAR(restored[3], 1.0f, 0.05f);
  EXPECT_NEAR(restored[11], -2.0f, 0.05f);
  EXPECT_EQ(restored[0], 0.0f);

  // All-denormal input: range collapses toward zero, round trip must
  // still produce finite values.
  ParamVec tiny(16, std::numeric_limits<float>::denorm_min());
  tiny[1] = -std::numeric_limits<float>::denorm_min();
  const ParamVec tiny_restored = decompress_topk(compress_topk(tiny, 1.0));
  ASSERT_EQ(tiny_restored.size(), tiny.size());
  for (float x : tiny_restored) EXPECT_TRUE(std::isfinite(x));
}

TEST(Compression, ErrorBoundIsSmall) {
  Rng rng(6);
  const ParamVec params = random_params(1000, rng);
  EXPECT_LT(quantization_error_bound(params, 0.5), 0.1f);
}

}  // namespace
}  // namespace baffle
