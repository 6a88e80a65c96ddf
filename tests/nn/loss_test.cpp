#include "nn/loss.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace baffle {
namespace {

double loss_of(const Matrix& logits, const std::vector<int>& labels) {
  Matrix dlogits;
  return softmax_cross_entropy_into(logits, labels, dlogits);
}

Matrix grad_of(const Matrix& logits, const std::vector<int>& labels) {
  Matrix dlogits;
  softmax_cross_entropy_into(logits, labels, dlogits);
  return dlogits;
}

TEST(Loss, UniformLogitsGiveLogK) {
  const Matrix logits(4, 10, 0.0f);
  const std::vector<int> labels{0, 3, 5, 9};
  EXPECT_NEAR(loss_of(logits, labels), std::log(10.0), 1e-6);
}

TEST(Loss, ConfidentCorrectPredictionLowLoss) {
  Matrix logits(1, 3, 0.0f);
  logits.at(0, 1) = 20.0f;
  const std::vector<int> labels{1};
  EXPECT_LT(loss_of(logits, labels), 1e-6);
}

TEST(Loss, ConfidentWrongPredictionHighLoss) {
  Matrix logits(1, 3, 0.0f);
  logits.at(0, 0) = 20.0f;
  const std::vector<int> labels{1};
  EXPECT_GT(loss_of(logits, labels), 10.0);
}

TEST(Loss, GradientSumsToZeroPerRow) {
  Matrix logits = Matrix::from_rows(2, 3, {1, 2, 3, -1, 0, 1});
  const std::vector<int> labels{0, 2};
  const Matrix dlogits = grad_of(logits, labels);
  for (std::size_t r = 0; r < 2; ++r) {
    float total = 0.0f;
    for (float g : dlogits.row(r)) total += g;
    EXPECT_NEAR(total, 0.0f, 1e-6f);
  }
}

TEST(Loss, GradientIsSoftmaxMinusOneHotOverBatch) {
  Matrix logits(1, 2, 0.0f);  // softmax = (0.5, 0.5)
  const std::vector<int> labels{0};
  const Matrix dlogits = grad_of(logits, labels);
  EXPECT_NEAR(dlogits.at(0, 0), -0.5f, 1e-6f);
  EXPECT_NEAR(dlogits.at(0, 1), 0.5f, 1e-6f);
}

TEST(Loss, GradientScalesWithBatch) {
  Matrix logits(2, 2, 0.0f);
  const std::vector<int> labels{0, 0};
  const Matrix dlogits = grad_of(logits, labels);
  EXPECT_NEAR(dlogits.at(0, 0), -0.25f, 1e-6f);  // (0.5-1)/2
}

TEST(Loss, LossMatchesGradVariant) {
  // The loss the gradient call returns is the textbook mean
  // cross-entropy, log-sum-exp taken in double.
  Matrix logits = Matrix::from_rows(3, 4, {1, 2, 3, 4, 0, 0, 0, 0, -2, 5, 1, 1});
  const std::vector<int> labels{3, 1, 2};
  double want = 0.0;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    double sum = 0.0;
    for (float z : logits.row(r)) sum += std::exp(static_cast<double>(z));
    want += std::log(sum) - logits.at(r, static_cast<std::size_t>(labels[r]));
  }
  want /= static_cast<double>(logits.rows());
  EXPECT_NEAR(loss_of(logits, labels), want, 1e-6);
}

TEST(Loss, LabelCountMismatchThrows) {
  Matrix logits(2, 3);
  const std::vector<int> labels{0};
  EXPECT_THROW(loss_of(logits, labels), std::invalid_argument);
}

TEST(Loss, LabelOutOfRangeThrows) {
  Matrix logits(1, 3);
  EXPECT_THROW(loss_of(logits, std::vector<int>{3}), std::invalid_argument);
  EXPECT_THROW(loss_of(logits, std::vector<int>{-1}), std::invalid_argument);
}

TEST(Loss, NumericallyStableForExtremeLogits) {
  Matrix logits = Matrix::from_rows(1, 2, {1000.0f, -1000.0f});
  const std::vector<int> labels{1};
  Matrix dlogits;
  const double loss = softmax_cross_entropy_into(logits, labels, dlogits);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_TRUE(std::isfinite(dlogits.at(0, 0)));
}

}  // namespace
}  // namespace baffle
