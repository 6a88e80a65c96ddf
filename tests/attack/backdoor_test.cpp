#include "attack/backdoor.hpp"

#include <gtest/gtest.h>

#include <array>

namespace baffle {
namespace {

Mlp always_predicts(int cls, std::size_t classes) {
  Mlp model(MlpConfig{{2, classes}});
  std::vector<float> params(model.num_params(), 0.0f);
  // Bias vector is the last `classes` entries.
  params[params.size() - classes + static_cast<std::size_t>(cls)] = 10.0f;
  model.set_parameters(params);
  return model;
}

Dataset backdoor_set(std::size_t n) {
  Dataset d(2, 4);
  for (std::size_t i = 0; i < n; ++i) d.add(std::array{0.0f, 0.0f}, 1);
  return d;
}

TEST(BackdoorAccuracy, FullHitWhenModelPredictsTarget) {
  Mlp model = always_predicts(3, 4);
  EXPECT_DOUBLE_EQ(backdoor_accuracy(model, backdoor_set(10), 3), 1.0);
}

TEST(BackdoorAccuracy, ZeroWhenModelPredictsElsewhere) {
  Mlp model = always_predicts(0, 4);
  EXPECT_DOUBLE_EQ(backdoor_accuracy(model, backdoor_set(10), 3), 0.0);
}

TEST(BackdoorAccuracy, EmptySetThrows) {
  Mlp model = always_predicts(0, 4);
  EXPECT_THROW(backdoor_accuracy(model, Dataset(2, 4), 3),
               std::invalid_argument);
}

TEST(BackdoorAccuracy, BadTargetThrows) {
  Mlp model = always_predicts(0, 4);
  EXPECT_THROW(backdoor_accuracy(model, backdoor_set(5), 9),
               std::invalid_argument);
  EXPECT_THROW(backdoor_accuracy(model, backdoor_set(5), -1),
               std::invalid_argument);
}

}  // namespace
}  // namespace baffle
