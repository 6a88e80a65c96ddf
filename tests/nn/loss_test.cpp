#include "nn/loss.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/train_oracle.hpp"
#include "tensor/ops.hpp"

namespace baffle {
namespace {

Matrix grad_of(const Matrix& logits, const std::vector<int>& labels) {
  Matrix dlogits = logits;
  softmax_xent_grad(dlogits, labels);
  return dlogits;
}

/// The class-major call's gradient, transposed back to one row per
/// sample; its bias gradient in `bias_grad`.
Matrix class_major_grad_of(const Matrix& logits,
                           const std::vector<int>& labels,
                           std::vector<float>& bias_grad) {
  Matrix logits_t;
  transpose(logits, logits_t);
  const std::vector<float> bias(logits.cols(), 0.0f);
  bias_grad.assign(logits.cols(), 7.0f);  // overwritten
  softmax_xent_grad_class_major(logits_t, bias, labels, bias_grad);
  Matrix dlogits;
  transpose(logits_t, dlogits);
  return dlogits;
}

TEST(Loss, UniformLogitsGiveLogK) {
  const Matrix logits(4, 10, 0.0f);
  const std::vector<int> labels{0, 3, 5, 9};
  EXPECT_NEAR(cross_entropy(logits, labels), std::log(10.0), 1e-6);
}

TEST(Loss, ConfidentCorrectPredictionLowLoss) {
  Matrix logits(1, 3, 0.0f);
  logits.at(0, 1) = 20.0f;
  const std::vector<int> labels{1};
  EXPECT_LT(cross_entropy(logits, labels), 1e-6);
}

TEST(Loss, ConfidentWrongPredictionHighLoss) {
  Matrix logits(1, 3, 0.0f);
  logits.at(0, 0) = 20.0f;
  const std::vector<int> labels{1};
  EXPECT_GT(cross_entropy(logits, labels), 10.0);
}

TEST(Loss, GradientSumsToZeroPerRow) {
  Matrix logits = Matrix::from_rows(2, 3, {1, 2, 3, -1, 0, 1});
  const std::vector<int> labels{0, 2};
  std::vector<float> bias_grad;
  for (const Matrix& dlogits :
       {grad_of(logits, labels), class_major_grad_of(logits, labels,
                                                      bias_grad)}) {
    for (std::size_t r = 0; r < 2; ++r) {
      float total = 0.0f;
      for (float g : dlogits.row(r)) total += g;
      EXPECT_NEAR(total, 0.0f, 1e-6f);
    }
  }
}

TEST(Loss, GradientIsSoftmaxMinusOneHotOverBatch) {
  Matrix logits(1, 2, 0.0f);  // softmax = (0.5, 0.5)
  const std::vector<int> labels{0};
  std::vector<float> bias_grad;
  for (const Matrix& dlogits :
       {grad_of(logits, labels), class_major_grad_of(logits, labels,
                                                      bias_grad)}) {
    EXPECT_NEAR(dlogits.at(0, 0), -0.5f, 1e-6f);
    EXPECT_NEAR(dlogits.at(0, 1), 0.5f, 1e-6f);
  }
  EXPECT_NEAR(bias_grad[0], -0.5f, 1e-6f);
  EXPECT_NEAR(bias_grad[1], 0.5f, 1e-6f);
}

TEST(Loss, GradientScalesWithBatch) {
  Matrix logits(2, 2, 0.0f);
  const std::vector<int> labels{0, 0};
  std::vector<float> bias_grad;
  EXPECT_NEAR(grad_of(logits, labels).at(0, 0), -0.25f, 1e-6f);  // (0.5-1)/2
  EXPECT_NEAR(class_major_grad_of(logits, labels, bias_grad).at(0, 0),
              -0.25f, 1e-6f);
  EXPECT_NEAR(bias_grad[0], -0.5f, 1e-6f);  // summed over the batch
}

TEST(Loss, LossMatchesGradVariant) {
  // Both layouts write the derivative of the mean cross-entropy: central
  // differences of the loss in each logit. The class-major call adds its
  // bias to every logit, and its bias gradient is the gradient's column
  // sums.
  Matrix logits =
      Matrix::from_rows(3, 4, {1, 2, 3, 4, 0, 0, 0, 0, -2, 5, 1, 1});
  const std::vector<int> labels{3, 1, 2};
  const Matrix row_major = grad_of(logits, labels);
  const std::vector<float> bias{0.5f, -1.0f, 0.0f, 2.0f};
  Matrix biased = logits;
  for (std::size_t r = 0; r < biased.rows(); ++r) {
    for (std::size_t c = 0; c < biased.cols(); ++c) biased.at(r, c) += bias[c];
  }
  Matrix logits_t;
  transpose(logits, logits_t);
  std::vector<float> bias_grad(4);
  softmax_xent_grad_class_major(logits_t, bias, labels, bias_grad);
  const double eps = 1e-3;
  for (const Matrix* point : {&logits, &biased}) {
    Matrix probe = *point;
    for (std::size_t r = 0; r < probe.rows(); ++r) {
      for (std::size_t c = 0; c < probe.cols(); ++c) {
        const float orig = probe.at(r, c);
        const float hi = orig + static_cast<float>(eps);
        const float lo = orig - static_cast<float>(eps);
        probe.at(r, c) = hi;
        const double up = cross_entropy(probe, labels);
        probe.at(r, c) = lo;
        const double down = cross_entropy(probe, labels);
        probe.at(r, c) = orig;
        const float analytic = point == &logits ? row_major.at(r, c)
                                                : logits_t.at(c, r);
        EXPECT_NEAR(analytic, (up - down) / (double{hi} - double{lo}), 1e-5)
            << "row " << r << " class " << c;
      }
    }
  }
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(bias_grad[c],
                logits_t.at(c, 0) + logits_t.at(c, 1) + logits_t.at(c, 2),
                1e-6f);
  }
}

TEST(Loss, LabelCountMismatchThrows) {
  Matrix logits(2, 3);
  const std::vector<int> labels{0};
  EXPECT_THROW(grad_of(logits, labels), std::invalid_argument);
  std::vector<float> bias_grad;
  EXPECT_THROW(class_major_grad_of(logits, labels, bias_grad),
               std::invalid_argument);
}

TEST(Loss, LabelOutOfRangeThrows) {
  Matrix logits(1, 3);
  std::vector<float> bias_grad;
  for (int y : {3, -1}) {
    const std::vector<int> labels{y};
    EXPECT_THROW(grad_of(logits, labels), std::invalid_argument);
    EXPECT_THROW(class_major_grad_of(logits, labels, bias_grad),
                 std::invalid_argument);
  }
}

TEST(Loss, NumericallyStableForExtremeLogits) {
  Matrix logits = Matrix::from_rows(1, 2, {1000.0f, -1000.0f});
  const std::vector<int> labels{1};
  EXPECT_TRUE(std::isfinite(cross_entropy(logits, labels)));
  std::vector<float> bias_grad;
  for (const Matrix& dlogits :
       {grad_of(logits, labels), class_major_grad_of(logits, labels,
                                                      bias_grad)}) {
    EXPECT_TRUE(std::isfinite(dlogits.at(0, 0)));
    EXPECT_TRUE(std::isfinite(dlogits.at(0, 1)));
  }
}

}  // namespace
}  // namespace baffle
