#include "nn/dense.hpp"

#include <gtest/gtest.h>

#include "tensor/ops.hpp"

namespace baffle {
namespace {

TEST(Dense, ShapesAndParamCount) {
  Dense layer(4, 3, /*relu=*/true);
  EXPECT_EQ(layer.in_dim(), 4u);
  EXPECT_EQ(layer.out_dim(), 3u);
  EXPECT_EQ(layer.num_params(), 4u * 3u + 3u);
}

TEST(Dense, RejectsZeroDims) {
  EXPECT_THROW(Dense(0, 3, /*relu=*/true), std::invalid_argument);
  EXPECT_THROW(Dense(3, 0, /*relu=*/true), std::invalid_argument);
}

TEST(Dense, InitWeightsNonZeroBiasZero) {
  Dense layer(8, 8, /*relu=*/true);
  Rng rng(1);
  layer.init_weights(rng);
  float norm = l2_norm(layer.weights().flat());
  EXPECT_GT(norm, 0.1f);
  for (float b : layer.bias()) EXPECT_EQ(b, 0.0f);
}

TEST(Dense, ForwardLinearIdentity) {
  Dense layer(2, 2, /*relu=*/false);
  layer.weights().at(0, 0) = 1.0f;
  layer.weights().at(1, 1) = 1.0f;
  layer.bias() = {0.5f, -0.5f};
  Matrix x = Matrix::from_rows(1, 2, {2.0f, 3.0f});
  Matrix out;
  layer.forward_eval(x, out);
  EXPECT_EQ(out.at(0, 0), 2.5f);
  EXPECT_EQ(out.at(0, 1), 2.5f);
}

TEST(Dense, ForwardReluClampsNegatives) {
  Dense layer(1, 1, /*relu=*/true);
  layer.weights().at(0, 0) = 1.0f;
  layer.bias() = {-5.0f};
  Matrix x = Matrix::from_rows(1, 1, {2.0f});
  Matrix out;
  layer.forward_eval(x, out);
  EXPECT_EQ(out.at(0, 0), 0.0f);
}

TEST(Dense, ForwardRejectsWrongInputDim) {
  Dense layer(3, 2, /*relu=*/true);
  Matrix x(1, 4);
  Matrix out;
  EXPECT_THROW(layer.forward_eval(x, out), std::invalid_argument);
}

TEST(Dense, BackwardAtWritesGradients) {
  Dense layer(2, 1, /*relu=*/false);
  layer.weights().at(0, 0) = 1.0f;
  layer.weights().at(1, 0) = 1.0f;
  Matrix x = Matrix::from_rows(1, 2, {3.0f, 4.0f});
  Matrix out;
  layer.forward_eval(x, out);
  Matrix dout = Matrix::from_rows(1, 1, {1.0f});
  layer.backward_at(x, out, dout, nullptr);
  // dW = xᵀ dout
  EXPECT_EQ(layer.weight_grad().at(0, 0), 3.0f);
  EXPECT_EQ(layer.weight_grad().at(1, 0), 4.0f);
  EXPECT_EQ(layer.bias_grad()[0], 1.0f);

  // One backward per step: a second call overwrites, it does not add.
  Matrix dout2 = Matrix::from_rows(1, 1, {2.0f});
  layer.backward_at(x, out, dout2, nullptr);
  EXPECT_EQ(layer.weight_grad().at(0, 0), 6.0f);
  EXPECT_EQ(layer.weight_grad().at(1, 0), 8.0f);
  EXPECT_EQ(layer.bias_grad()[0], 2.0f);
}

TEST(Dense, BackwardComputesInputGradient) {
  Dense layer(2, 2, /*relu=*/false);
  layer.weights().at(0, 0) = 2.0f;
  layer.weights().at(1, 1) = 3.0f;
  Matrix x = Matrix::from_rows(1, 2, {1.0f, 1.0f});
  Matrix out;
  layer.forward_eval(x, out);
  Matrix dout = Matrix::from_rows(1, 2, {1.0f, 1.0f});
  Matrix dx;
  layer.backward_at(x, out, dout, &dx);
  // dx = dout Wᵀ
  EXPECT_EQ(dx.at(0, 0), 2.0f);
  EXPECT_EQ(dx.at(0, 1), 3.0f);
}

TEST(Dense, BackwardShapeMismatchThrows) {
  Dense layer(2, 2, /*relu=*/false);
  Matrix x = Matrix::from_rows(1, 2, {1.0f, 1.0f});
  Matrix out;
  layer.forward_eval(x, out);
  Matrix bad = Matrix::from_rows(1, 3, {1, 1, 1});
  EXPECT_THROW(layer.backward_at(x, out, bad, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace baffle
