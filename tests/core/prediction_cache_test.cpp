#include "core/prediction_cache.hpp"

#include <gtest/gtest.h>

#include "util/contracts.hpp"

namespace baffle {
namespace {

/// A distinguishable 3-class profile: `tag` lands in its accuracy.
ErrorProfile profile_with(double tag) {
  return ErrorProfile{std::vector<double>(6, 0.0), tag};
}

TEST(PredictionCache, MissThenHit) {
  PredictionCache cache;
  cache.insert_missed(7, profile_with(0.5));
  EXPECT_EQ(cache.hit(7).accuracy, 0.5);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PredictionCache, DistinctVersionsEvaluatedSeparately) {
  PredictionCache cache;
  for (std::uint64_t v : {1u, 2u, 3u}) {
    cache.insert_missed(v, profile_with(static_cast<double>(v)));
  }
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.hit(2).accuracy, 2.0);
}

TEST(PredictionCache, FindReturnsStoredMatrix) {
  PredictionCache cache;
  cache.insert_missed(5, ErrorProfile{{0.25, 0.0, 0.0, 0.25}, 0.75});
  const ErrorProfile* found = cache.find(5);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->errors, (std::vector<double>{0.25, 0.0, 0.0, 0.25}));
  EXPECT_EQ(found->accuracy, 0.75);
  EXPECT_EQ(cache.find(6), nullptr);
  // find is not a counted lookup.
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(PredictionCache, InsertOverwritesSameVersion) {
  PredictionCache cache;
  cache.insert_missed(1, profile_with(0.1));
  cache.insert_missed(1, profile_with(0.2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find(1)->accuracy, 0.2);
}

TEST(PredictionCache, PromoteBindsMatrixAndCounts) {
  PredictionCache cache;
  cache.promote(4, profile_with(0.9));
  EXPECT_EQ(cache.promotions(), 1u);
  EXPECT_EQ(cache.misses(), 0u);
  // A promoted entry is a plain cache entry afterwards: the lookup hits.
  EXPECT_EQ(cache.hit(4).accuracy, 0.9);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(PredictionCache, HitOnMissingEntryThrows) {
  // Every window model is deposited before scoring; a lookup that finds
  // nothing is a validator bug, never a silent evaluation.
  PredictionCache cache;
  cache.insert_missed(1, profile_with(0.0));
  EXPECT_THROW(cache.hit(2), ContractViolation);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(PredictionCache, EvictBeforeDropsOnlyOlderVersions) {
  PredictionCache cache;
  for (std::uint64_t v : {10u, 11u, 12u, 13u}) {
    cache.insert_missed(v, profile_with(0.0));
  }
  cache.evict_before(12);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find(10), nullptr);
  EXPECT_EQ(cache.find(11), nullptr);
  EXPECT_NE(cache.find(12), nullptr);
  EXPECT_NE(cache.find(13), nullptr);
  cache.evict_before(0);  // nothing older than the oldest entry
  EXPECT_EQ(cache.size(), 2u);
  cache.evict_before(100);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PredictionCache, EvictedVersionCountsAsMissAgain) {
  PredictionCache cache;
  cache.insert_missed(1, profile_with(0.0));
  cache.insert_missed(2, profile_with(0.0));
  cache.evict_before(2);  // drops version 1
  EXPECT_EQ(cache.find(1), nullptr);
  cache.insert_missed(1, profile_with(0.0));  // must be re-deposited
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 3u);
  cache.hit(1);
  EXPECT_EQ(cache.hits(), 1u);
}

}  // namespace
}  // namespace baffle
