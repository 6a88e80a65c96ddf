#include "attack/backdoor.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <string>

#include "data/synth.hpp"
#include "support/predict_oracle.hpp"

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

/// The message `fn` throws as std::invalid_argument ("" if none).
template <typename Fn>
std::string invalid_argument_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(BackdoorAccuracy, EmptySetThrows) {
  Mlp model = always_predicts(0, 4);
  MlpEvalWorkspace ws;
  EXPECT_EQ(invalid_argument_of(
                [&] { backdoor_accuracy(model, Dataset(2, 4), 3); }),
            "backdoor_accuracy: empty test set");
  EXPECT_EQ(invalid_argument_of(
                [&] { backdoor_accuracy(model, Dataset(2, 4), 3, ws); }),
            "backdoor_accuracy: empty test set");
}

TEST(BackdoorAccuracy, BothOverloadsEqualTheOracleOnAPartialLastPanel) {
  // A vision-shaped model ({32, 64, 10}), every weight and bias drawn
  // at random, on 101 backdoor samples: 6 full 16-sample panels and a
  // 5-sample tail.
  Rng rng(23);
  SynthTaskConfig cfg = synth_vision10_config();
  cfg.train_per_class = 1;
  cfg.test_per_class = 1;
  cfg.backdoor_test_size = 101;
  const Dataset backdoor_test = make_synth_task(cfg, rng).backdoor_test;
  ASSERT_EQ(backdoor_test.size(), 101u);
  Mlp model(MlpConfig{{cfg.dim, 64, cfg.num_classes}});
  model.init(rng);
  std::vector<float> params = model.parameters();
  for (float& p : params) p += static_cast<float>(rng.normal(0.0, 0.3));
  model.set_parameters(params);

  const std::vector<std::size_t> preds =
      oracle_predict(model, backdoor_test.features());
  MlpEvalWorkspace ws;
  for (int target = 0; target < static_cast<int>(cfg.num_classes);
       ++target) {
    SCOPED_TRACE(target);
    const double want = backdoor_hit_rate(backdoor_test, target, preds);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  backdoor_accuracy(model, backdoor_test, target)),
              std::bit_cast<std::uint64_t>(want));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  backdoor_accuracy(model, backdoor_test, target, ws)),
              std::bit_cast<std::uint64_t>(want));
  }
}

TEST(BackdoorAccuracy, RejectsASetOfAnotherInputWidth) {
  const Mlp model = always_predicts(0, 4);
  Dataset wide(3, 4);
  wide.add(std::array{0.0f, 1.0f, 0.0f}, 1);
  MlpEvalWorkspace ws;
  EXPECT_THROW(backdoor_accuracy(model, wide, 3), std::invalid_argument);
  EXPECT_THROW(backdoor_accuracy(model, wide, 3, ws), std::invalid_argument);
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
