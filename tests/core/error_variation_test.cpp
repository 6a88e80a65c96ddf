#include "core/error_variation.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "metrics/confusion.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace baffle {
namespace {

/// Profile of a model that predicted `p` for a sample labelled `t`, for
/// each (t, p) pair.
ErrorProfile profile_from(std::initializer_list<std::pair<int, int>> pairs,
                          std::size_t classes = 3) {
  std::vector<int> labels;
  std::vector<std::size_t> preds;
  for (const auto& [t, p] : pairs) {
    labels.push_back(t);
    preds.push_back(static_cast<std::size_t>(p));
  }
  return error_profile(labels, preds, classes);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(ErrorVariation, IdenticalModelsGiveZeroVector) {
  const auto profile = profile_from({{0, 0}, {1, 2}, {2, 2}});
  const VariationPoint v = error_variation(profile, profile);
  ASSERT_EQ(v.size(), 6u);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(ErrorVariation, DimensionIsTwiceNumClasses) {
  const auto profile = profile_from({{0, 0}}, 5);
  EXPECT_EQ(error_variation(profile, profile).size(), 10u);
}

TEST(ErrorVariation, ImprovementIsPositive) {
  // Older model misreads class 0; newer fixes it. v^s_0 = err_old -
  // err_new > 0.
  const auto older = profile_from({{0, 1}, {1, 1}, {2, 2}, {0, 0}});
  const auto newer = profile_from({{0, 0}, {1, 1}, {2, 2}, {0, 0}});
  const VariationPoint v = error_variation(older, newer);
  EXPECT_DOUBLE_EQ(v[0], 0.25);   // source-focused, class 0
  EXPECT_DOUBLE_EQ(v[3 + 1], 0.25);  // target-focused, class 1
}

TEST(ErrorVariation, RegressionIsNegative) {
  const auto older = profile_from({{0, 0}, {1, 1}});
  const auto newer = profile_from({{0, 1}, {1, 1}});
  const VariationPoint v = error_variation(older, newer);
  EXPECT_DOUBLE_EQ(v[0], -0.5);
}

TEST(ErrorVariation, BackdooredModelShiftsSourceAndTargetClasses) {
  // Clean model: everything right. Backdoored model: class 1 (source)
  // samples get labelled 2 (target) — the label-flip signature.
  std::vector<int> labels;
  std::vector<std::size_t> clean_preds, poisoned_preds;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 10; ++i) {
      labels.push_back(c);
      clean_preds.push_back(static_cast<std::size_t>(c));
      poisoned_preds.push_back(c == 1 ? 2u : static_cast<std::size_t>(c));
    }
  }
  const VariationPoint v =
      error_variation(error_profile(labels, clean_preds, 3),
                      error_profile(labels, poisoned_preds, 3));
  EXPECT_LT(v[1], 0.0);       // source class error increased
  EXPECT_LT(v[3 + 2], 0.0);   // target class absorbs wrong predictions
  EXPECT_DOUBLE_EQ(v[0], 0.0);  // untouched classes unchanged
}

TEST(ErrorVariation, MismatchedClassCountsThrow) {
  const ErrorProfile a = profile_from({{0, 0}}, 2);
  const ErrorProfile b = profile_from({{0, 0}}, 3);
  EXPECT_THROW(error_variation(a, b), std::invalid_argument);
}

TEST(ErrorProfile, MatchesConfusionMatrixBitForBit) {
  // The validator caches profiles instead of confusion matrices; every
  // entry must carry exactly the bits ConfusionMatrix computes from the
  // same predictions, or votes, φ and τ would drift.
  Rng rng(62);
  for (const std::size_t classes : {1u, 10u, 62u}) {
    SCOPED_TRACE(classes);
    for (const std::size_t n : {0u, 1u, 7u, 313u, 2000u}) {
      SCOPED_TRACE(n);
      std::vector<int> labels(n);
      std::vector<std::size_t> preds(n);
      ConfusionMatrix cm(classes);
      const auto top = static_cast<std::int64_t>(classes) - 1;
      for (std::size_t i = 0; i < n; ++i) {
        labels[i] = static_cast<int>(rng.uniform_int(0, top));
        // Mostly right, like a trained model, so every count is live.
        preds[i] = static_cast<std::size_t>(
            rng.uniform() < 0.7 ? labels[i] : rng.uniform_int(0, top));
        cm.record(labels[i], static_cast<int>(preds[i]));
      }
      const ErrorProfile profile = error_profile(labels, preds, classes);
      std::vector<double> expected = cm.source_focused_errors();
      const std::vector<double> target = cm.target_focused_errors();
      expected.insert(expected.end(), target.begin(), target.end());
      EXPECT_TRUE(same_bits(profile.errors, expected));
      const double accuracy = cm.accuracy();
      EXPECT_EQ(std::memcmp(&profile.accuracy, &accuracy, sizeof(double)), 0);
    }
  }
}

TEST(ErrorProfile, RejectsOutOfRangeAndMismatchedInputs) {
  const std::vector<int> labels{0, 1};
  EXPECT_THROW(error_profile(labels, std::vector<std::size_t>{0, 2}, 2),
               ContractViolation);
  EXPECT_THROW(error_profile(std::vector<int>{0, -1},
                             std::vector<std::size_t>{0, 1}, 2),
               ContractViolation);
  EXPECT_THROW(error_profile(labels, std::vector<std::size_t>{0}, 2),
               ContractViolation);
  EXPECT_THROW(error_profile(labels, std::vector<std::size_t>{0, 1}, 0),
               ContractViolation);
}

TEST(VariationDistance, EuclideanBasics) {
  const VariationPoint a{0.0, 0.0}, b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(variation_distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(variation_distance(a, a), 0.0);
}

TEST(VariationDistance, Symmetric) {
  const VariationPoint a{1.0, -2.0, 0.5}, b{0.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(variation_distance(a, b), variation_distance(b, a));
}

TEST(VariationDistance, DimMismatchThrows) {
  EXPECT_THROW(variation_distance({1.0}, {1.0, 2.0}), std::invalid_argument);
}

}  // namespace
}  // namespace baffle
