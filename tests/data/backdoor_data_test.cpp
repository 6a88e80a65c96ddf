#include "data/backdoor_data.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>

namespace baffle {
namespace {

Dataset pool_of_class(int y, std::size_t n, std::size_t classes = 10) {
  Dataset d(2, classes);
  for (std::size_t i = 0; i < n; ++i) {
    d.add(std::array{static_cast<float>(i), 0.0f}, y);
  }
  return d;
}

TEST(RelabelToTarget, FlipsEveryLabel) {
  const Dataset pool = pool_of_class(1, 20);
  const BackdoorTask task{BackdoorKind::kSemantic, 1, 7};
  const Dataset flipped = relabel_to_target(pool, task);
  ASSERT_EQ(flipped.size(), 20u);
  for (int y : flipped.labels()) EXPECT_EQ(y, 7);
}

TEST(RelabelToTarget, PreservesFeatures) {
  const Dataset pool = pool_of_class(1, 5);
  const BackdoorTask task{BackdoorKind::kSemantic, 1, 2};
  const Dataset flipped = relabel_to_target(pool, task);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(std::ranges::equal(flipped.x(i), pool.x(i)));
  }
}

TEST(PoisonedTrainingSet, FractionApproximatelyRespected) {
  const Dataset clean = pool_of_class(0, 70);
  const Dataset pool = pool_of_class(1, 30);
  const BackdoorTask task{BackdoorKind::kSemantic, 1, 2};
  Rng rng(1);
  const Dataset blended =
      make_poisoned_training_set(clean, pool, task, 0.3, rng);
  const auto poisoned = static_cast<std::size_t>(
      std::ranges::count(blended.labels(), 2));
  const double frac =
      static_cast<double>(poisoned) / static_cast<double>(blended.size());
  EXPECT_NEAR(frac, 0.3, 0.03);
}

TEST(PoisonedTrainingSet, KeepsAllCleanSamples) {
  const Dataset clean = pool_of_class(0, 40);
  const Dataset pool = pool_of_class(1, 10);
  const BackdoorTask task{BackdoorKind::kSemantic, 1, 3};
  Rng rng(2);
  const Dataset blended =
      make_poisoned_training_set(clean, pool, task, 0.2, rng);
  EXPECT_EQ(std::ranges::count(blended.labels(), 0), 40);
}

TEST(PoisonedTrainingSet, ResamplesSmallPoolWithReplacement) {
  const Dataset clean = pool_of_class(0, 100);
  const Dataset pool = pool_of_class(1, 2);  // tiny pool
  const BackdoorTask task{BackdoorKind::kSemantic, 1, 3};
  Rng rng(3);
  const Dataset blended =
      make_poisoned_training_set(clean, pool, task, 0.3, rng);
  // Far more than the pool size.
  EXPECT_GT(std::ranges::count(blended.labels(), 3), 30);
}

TEST(PoisonedTrainingSet, RejectsBadInputs) {
  const Dataset clean = pool_of_class(0, 10);
  const Dataset pool = pool_of_class(1, 10);
  const Dataset empty(2, 10);
  const BackdoorTask task{BackdoorKind::kSemantic, 1, 2};
  Rng rng(4);
  EXPECT_THROW(make_poisoned_training_set(clean, pool, task, 0.0, rng),
               std::invalid_argument);
  EXPECT_THROW(make_poisoned_training_set(clean, pool, task, 1.0, rng),
               std::invalid_argument);
  EXPECT_THROW(make_poisoned_training_set(
                   clean, pool, task,
                   std::numeric_limits<double>::quiet_NaN(), rng),
               std::invalid_argument);
  EXPECT_THROW(make_poisoned_training_set(clean, empty, task, 0.3, rng),
               std::invalid_argument);
}

TEST(PickLabelFlipTask, SourceIsModalClass) {
  Dataset d(1, 5);
  for (int i = 0; i < 3; ++i) d.add(std::array{0.0f}, 1);
  for (int i = 0; i < 10; ++i) d.add(std::array{0.0f}, 3);
  for (int i = 0; i < 2; ++i) d.add(std::array{0.0f}, 4);
  Rng rng(5);
  const BackdoorTask task = pick_label_flip_task(d, rng);
  EXPECT_EQ(task.source_class, 3);
  EXPECT_NE(task.target_class, 3);
  EXPECT_GE(task.target_class, 0);
  EXPECT_LT(task.target_class, 5);
  EXPECT_EQ(task.kind, BackdoorKind::kLabelFlip);
}

TEST(PickLabelFlipTask, TargetNeverEqualsSourceOverManyDraws) {
  Dataset d(1, 4);
  for (int i = 0; i < 5; ++i) d.add(std::array{0.0f}, 2);
  for (int seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    const BackdoorTask task = pick_label_flip_task(d, rng);
    EXPECT_NE(task.target_class, task.source_class);
  }
}

TEST(PickLabelFlipTask, EmptyDataThrows) {
  const Dataset d(1, 3);
  Rng rng(6);
  EXPECT_THROW(pick_label_flip_task(d, rng), std::invalid_argument);
}

}  // namespace
}  // namespace baffle
