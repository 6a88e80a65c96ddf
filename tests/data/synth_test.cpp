#include "data/synth.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "metrics/confusion.hpp"
#include "nn/train.hpp"

namespace baffle {
namespace {

TEST(Synth, VisionPresetShapes) {
  Rng rng(1);
  const SynthTask task = make_synth_task(synth_vision10_config(), rng);
  EXPECT_EQ(task.train.num_classes(), 10u);
  EXPECT_EQ(task.train.size(), 10u * task.config.train_per_class);
  EXPECT_EQ(task.test.size(), 10u * task.config.test_per_class);
  EXPECT_EQ(task.backdoor_train.size(), task.config.backdoor_train_size);
  EXPECT_EQ(task.backdoor_test.size(), task.config.backdoor_test_size);
  EXPECT_EQ(task.train.dim(), task.config.dim);
}

TEST(Synth, FemnistPresetShapes) {
  Rng rng(2);
  const SynthTask task = make_synth_task(synth_femnist62_config(), rng);
  EXPECT_EQ(task.train.num_classes(), 62u);
  EXPECT_EQ(task.train.size(), 62u * task.config.train_per_class);
}

TEST(Synth, BackdoorInstancesCarryTrueSourceLabel) {
  Rng rng(3);
  const SynthTask task = make_synth_task(synth_vision10_config(), rng);
  for (int y : task.backdoor_train.labels()) {
    EXPECT_EQ(y, task.config.backdoor_source);
  }
  for (int y : task.backdoor_test.labels()) {
    EXPECT_EQ(y, task.config.backdoor_source);
  }
}

TEST(Synth, TrainHasAllClasses) {
  Rng rng(4);
  const SynthTask task = make_synth_task(synth_vision10_config(), rng);
  for (std::size_t count : task.train.class_counts()) {
    EXPECT_GT(count, 0u);
  }
}

TEST(Synth, DeterministicGivenSeed) {
  Rng a(5), b(5);
  const SynthTask ta = make_synth_task(synth_vision10_config(), a);
  const SynthTask tb = make_synth_task(synth_vision10_config(), b);
  ASSERT_EQ(ta.train.size(), tb.train.size());
  EXPECT_TRUE(std::ranges::equal(ta.train.features().flat(),
                                 tb.train.features().flat()));
  EXPECT_EQ(ta.train.labels(), tb.train.labels());
}

TEST(Synth, TaskIsLearnable) {
  Rng rng(6);
  SynthTaskConfig cfg = synth_vision10_config();
  cfg.train_per_class = 200;
  const SynthTask task = make_synth_task(cfg, rng);
  Mlp model(MlpConfig{{cfg.dim, 64, cfg.num_classes}});
  model.init(rng);
  TrainConfig tc;
  tc.epochs = 20;
  tc.batch_size = 64;
  tc.sgd.learning_rate = 0.05f;
  train_sgd(model, task.train.features(), task.train.labels(), tc, rng);
  EXPECT_GT(evaluate_confusion(model, task.test).accuracy(), 0.8);
}

TEST(Synth, SemanticBackdoorIsDistinctSubpopulation) {
  // A model trained only on clean data should mostly classify backdoor
  // instances as their true source class (they are source-class samples
  // with an extra feature) — that is what makes the backdoor *semantic*.
  Rng rng(7);
  const SynthTask task = make_synth_task(synth_vision10_config(), rng);
  Mlp model(
      MlpConfig{{task.config.dim, 64, task.config.num_classes}});
  model.init(rng);
  TrainConfig tc;
  tc.epochs = 25;
  tc.batch_size = 64;
  tc.sgd.learning_rate = 0.05f;
  train_sgd(model, task.train.features(), task.train.labels(), tc, rng);
  const double acc_on_backdoor =
      evaluate_confusion(model, task.backdoor_test).accuracy();
  EXPECT_GT(acc_on_backdoor, 0.4);
}

TEST(Synth, LabelFlipBackdoorSamplesComeFromSourceClassDistribution) {
  Rng rng(8);
  SynthTaskConfig cfg = synth_femnist62_config();
  cfg.backdoor_source = 5;
  cfg.backdoor_target = 11;
  const SynthTask task = make_synth_task(cfg, rng);
  for (int y : task.backdoor_train.labels()) EXPECT_EQ(y, 5);
}

TEST(Synth, TriggerPatternShape) {
  const SynthTaskConfig cfg = synth_vision10_config();
  const auto pattern = trigger_pattern(cfg);
  ASSERT_EQ(pattern.size(), cfg.dim);
  for (std::size_t i = 0; i < cfg.dim; ++i) {
    if (i < kTriggerPatchDims) {
      EXPECT_EQ(pattern[i], static_cast<float>(cfg.trigger_strength));
    } else {
      EXPECT_EQ(pattern[i], 0.0f);
    }
  }
}

TEST(Synth, ApplyTriggerAddsPattern) {
  const SynthTaskConfig cfg = synth_vision10_config();
  const auto pattern = trigger_pattern(cfg);
  std::vector<float> x(cfg.dim, 1.0f);
  apply_trigger(x, pattern);
  EXPECT_EQ(x[0], 1.0f + static_cast<float>(cfg.trigger_strength));
  EXPECT_EQ(x[cfg.dim - 1], 1.0f);
}

TEST(Synth, ApplyTriggerRejectsDimMismatch) {
  std::vector<float> x(4, 0.0f);
  EXPECT_THROW(apply_trigger(x, std::vector<float>{1.0f}),
               std::invalid_argument);
}

TEST(Synth, TriggerBackdoorSetIsStampedMultiClass) {
  Rng rng(21);
  SynthTaskConfig cfg = synth_vision10_config();
  cfg.backdoor_kind = BackdoorKind::kTrigger;
  cfg.backdoor_test_size = 200;
  const SynthTask task = make_synth_task(cfg, rng);
  // True classes of trigger instances span more than one class.
  const auto& labels = task.backdoor_test.labels();
  const std::set<int> classes(labels.begin(), labels.end());
  EXPECT_GT(classes.size(), 3u);
}

TEST(Synth, RejectsBadBackdoorClasses) {
  Rng rng(9);
  SynthTaskConfig cfg = synth_vision10_config();
  cfg.backdoor_source = cfg.backdoor_target;
  EXPECT_THROW(make_synth_task(cfg, rng), std::invalid_argument);
  cfg = synth_vision10_config();
  cfg.backdoor_target = 99;
  EXPECT_THROW(make_synth_task(cfg, rng), std::invalid_argument);
}

TEST(Synth, LabelNoiseProducesMislabeledExamples) {
  Rng rng(10);
  SynthTaskConfig cfg = synth_vision10_config();
  cfg.label_noise = 0.5;
  cfg.train_per_class = 100;
  const SynthTask task = make_synth_task(cfg, rng);
  // With 50% label noise the per-class counts must deviate widely from a
  // clean generator; just check the test set (no noise) differs from
  // train in label-conditional structure via a weak proxy: train cannot
  // be 100% learnable.
  Mlp model(MlpConfig{{cfg.dim, 32, cfg.num_classes}});
  model.init(rng);
  TrainConfig tc;
  tc.epochs = 30;
  train_sgd(model, task.train.features(), task.train.labels(), tc, rng);
  EXPECT_LT(evaluate_confusion(model, task.train).accuracy(), 0.95);
}

}  // namespace
}  // namespace baffle
