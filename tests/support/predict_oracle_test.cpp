#include "support/predict_oracle.hpp"

#include <gtest/gtest.h>

namespace baffle {
namespace {

TEST(PredictOracle, ReturnsArgmaxClass) {
  // A linear model that always prefers class 2.
  Mlp model(MlpConfig{{2, 3}});
  std::vector<float> params(model.num_params(), 0.0f);
  params[model.num_params() - 1] = 10.0f;  // bias of class 2
  model.set_parameters(params);
  const Matrix x(4, 2, 1.0f);
  for (std::size_t p : oracle_predict(model, x)) EXPECT_EQ(p, 2u);
}

TEST(PredictOracle, ArgmaxTakesEachRowsFirstMaximum) {
  // The engine's argmax keeps the first of tied maxima; so must the
  // oracle's (last row: a tie between columns 0 and 1).
  const Matrix m =
      Matrix::from_rows(4, 3, {1, 5, 2, 9, 0, 1, 2, 2, 7, 4, 4, 3});
  EXPECT_EQ(oracle_argmax_rows(m), (std::vector<std::size_t>{1, 0, 2, 0}));
}

}  // namespace
}  // namespace baffle
