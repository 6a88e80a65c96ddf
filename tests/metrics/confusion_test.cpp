#include "metrics/confusion.hpp"

#include <gtest/gtest.h>

#include <array>

#include "data/synth.hpp"
#include "support/predict_oracle.hpp"

namespace baffle {
namespace {

void expect_same_counts(const ConfusionMatrix& got,
                        const ConfusionMatrix& want) {
  ASSERT_EQ(got.num_classes(), want.num_classes());
  EXPECT_EQ(got.total(), want.total());
  const int classes = static_cast<int>(want.num_classes());
  for (int t = 0; t < classes; ++t) {
    for (int p = 0; p < classes; ++p) {
      EXPECT_EQ(got.count(t, p), want.count(t, p)) << t << "->" << p;
    }
  }
}

/// A vision-shaped model ({32, 64, 10}) with every weight and bias
/// drawn at random, so a dropped bias add changes predictions.
Mlp vision_model(const SynthTaskConfig& cfg, Rng& rng) {
  Mlp model(MlpConfig{{cfg.dim, 64, cfg.num_classes}});
  model.init(rng);
  std::vector<float> params = model.parameters();
  for (float& p : params) p += static_cast<float>(rng.normal(0.0, 0.3));
  model.set_parameters(params);
  return model;
}

TEST(ConfusionMatrix, AccuracyAndError) {
  ConfusionMatrix cm(3);
  cm.record(0, 0);
  cm.record(1, 1);
  cm.record(2, 0);  // wrong
  cm.record(2, 2);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.75);
  EXPECT_DOUBLE_EQ(cm.error(), 0.25);
  EXPECT_EQ(cm.total(), 4u);
}

TEST(ConfusionMatrix, EmptyAccuracyIsZero) {
  ConfusionMatrix cm(2);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.0);
}

TEST(ConfusionMatrix, RecordValidatesRange) {
  ConfusionMatrix cm(2);
  EXPECT_THROW(cm.record(2, 0), std::invalid_argument);
  EXPECT_THROW(cm.record(0, -1), std::invalid_argument);
}

TEST(ConfusionMatrix, ZeroClassesRejected) {
  EXPECT_THROW(ConfusionMatrix(0), std::invalid_argument);
}

TEST(ConfusionMatrix, SourceFocusedErrorsNormalizedByTotal) {
  // err^{y->*}: fraction of ALL samples that are class y and misread.
  ConfusionMatrix cm(2);
  cm.record(0, 1);  // class 0 misread
  cm.record(0, 0);
  cm.record(1, 1);
  cm.record(1, 1);
  const auto e = cm.source_focused_errors();
  EXPECT_DOUBLE_EQ(e[0], 0.25);
  EXPECT_DOUBLE_EQ(e[1], 0.0);
}

TEST(ConfusionMatrix, TargetFocusedErrorsNormalizedByTotal) {
  // err^{*->y}: fraction of ALL samples wrongly assigned TO class y.
  ConfusionMatrix cm(2);
  cm.record(0, 1);
  cm.record(1, 1);
  cm.record(1, 1);
  cm.record(0, 0);
  const auto e = cm.target_focused_errors();
  EXPECT_DOUBLE_EQ(e[1], 0.25);
  EXPECT_DOUBLE_EQ(e[0], 0.0);
}

TEST(ConfusionMatrix, SourceErrorsSumEqualsTotalError) {
  ConfusionMatrix cm(3);
  cm.record(0, 1);
  cm.record(1, 2);
  cm.record(2, 2);
  cm.record(0, 0);
  const auto src = cm.source_focused_errors();
  const auto tgt = cm.target_focused_errors();
  double src_total = 0.0, tgt_total = 0.0;
  for (double e : src) src_total += e;
  for (double e : tgt) tgt_total += e;
  EXPECT_NEAR(src_total, cm.error(), 1e-12);
  EXPECT_NEAR(tgt_total, cm.error(), 1e-12);
}

TEST(ConfusionMatrix, PerClassErrorRatesNormalizedPerClass) {
  ConfusionMatrix cm(2);
  cm.record(0, 1);
  cm.record(0, 1);
  cm.record(0, 0);
  cm.record(1, 1);
  const auto rates = cm.per_class_error_rates();
  EXPECT_NEAR(rates[0], 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(rates[1], 0.0);
}

TEST(ConfusionMatrix, PerClassErrorEmptyClassIsZero) {
  ConfusionMatrix cm(3);
  cm.record(0, 0);
  EXPECT_DOUBLE_EQ(cm.per_class_error_rates()[2], 0.0);
}

TEST(EvaluateConfusion, MatchesModelPredictions) {
  // Linear model biased to always predict class 1.
  Mlp model(MlpConfig{{2, 2}});
  std::vector<float> params(model.num_params(), 0.0f);
  params.back() = 5.0f;  // class-1 bias
  model.set_parameters(params);

  Dataset data(2, 2);
  data.add(std::array{0.0f, 0.0f}, 0);
  data.add(std::array{0.0f, 0.0f}, 1);
  data.add(std::array{0.0f, 0.0f}, 1);
  const ConfusionMatrix cm = evaluate_confusion(model, data);
  EXPECT_EQ(cm.count(0, 1), 1u);
  EXPECT_EQ(cm.count(1, 1), 2u);
  EXPECT_NEAR(cm.accuracy(), 2.0 / 3.0, 1e-12);
  expect_same_counts(cm, oracle_confusion(model, data));
}

TEST(EvaluateConfusion, BothOverloadsEqualTheOracleOnAPartialLastPanel) {
  // 330 samples: 20 full 16-sample panels and a 10-sample tail.
  Rng rng(17);
  SynthTaskConfig cfg = synth_vision10_config();
  cfg.train_per_class = 1;
  cfg.test_per_class = 33;
  const Dataset test = make_synth_task(cfg, rng).test;
  ASSERT_NE(test.size() % 16, 0u);
  const Mlp model = vision_model(cfg, rng);
  const ConfusionMatrix want = oracle_confusion(model, test);
  ASSERT_GT(want.accuracy(), 0.0);
  ASSERT_LT(want.accuracy(), 1.0);

  expect_same_counts(evaluate_confusion(model, test), want);
  MlpEvalWorkspace ws;
  expect_same_counts(evaluate_confusion(model, test, ws), want);
  // The workspace carries over to another model.
  const Mlp other = vision_model(cfg, rng);
  expect_same_counts(evaluate_confusion(other, test, ws),
                     oracle_confusion(other, test));
}

TEST(EvaluateConfusion, RejectsADatasetOfAnotherInputWidth) {
  const Mlp model(MlpConfig{{4, 6, 3}});
  Dataset data(5, 3);
  data.add(std::array{0.0f, 1.0f, 0.0f, 1.0f, 0.0f}, 1);
  MlpEvalWorkspace ws;
  EXPECT_THROW(evaluate_confusion(model, data), std::invalid_argument);
  EXPECT_THROW(evaluate_confusion(model, data, ws), std::invalid_argument);
}

TEST(EvaluateConfusion, EmptyDatasetGivesEmptyMatrix) {
  Mlp model(MlpConfig{{2, 2}});
  const Dataset data(2, 2);
  EXPECT_EQ(evaluate_confusion(model, data).total(), 0u);
  MlpEvalWorkspace ws;
  EXPECT_EQ(evaluate_confusion(model, data, ws).total(), 0u);
}

}  // namespace
}  // namespace baffle
