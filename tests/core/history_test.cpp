#include "core/history.hpp"

#include <gtest/gtest.h>

namespace baffle {
namespace {

ParamVec params(float v) { return ParamVec{v, v}; }

TEST(ModelHistory, PushAndLatest) {
  ModelHistory h(5);
  EXPECT_TRUE(h.empty());
  h.push(1, params(1.0f));
  h.push(2, params(2.0f));
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.latest().version, 2u);
  EXPECT_EQ(h.latest().params[0], 2.0f);
}

TEST(ModelHistory, CapacityEvictsOldest) {
  ModelHistory h(3);
  for (std::uint64_t v = 1; v <= 5; ++v) h.push(v, params(v));
  EXPECT_EQ(h.size(), 3u);
  const auto w = h.window_shared(3);
  EXPECT_EQ(w.front()->version, 3u);
  EXPECT_EQ(w.back()->version, 5u);
}

TEST(ModelHistory, WindowOldestFirst) {
  ModelHistory h(10);
  for (std::uint64_t v = 1; v <= 6; ++v) h.push(v, params(v));
  const auto w = h.window_shared(4);
  ASSERT_EQ(w.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(w[i]->version, 3 + i);
  }
}

TEST(ModelHistory, WindowShorterWhenHistoryShort) {
  ModelHistory h(10);
  h.push(1, params(1.0f));
  h.push(2, params(2.0f));
  EXPECT_EQ(h.window_shared(5).size(), 2u);
}

TEST(ModelHistory, WindowZeroIsEmpty) {
  ModelHistory h(4);
  h.push(1, params(1.0f));
  EXPECT_TRUE(h.window_shared(0).empty());
}

TEST(ModelHistory, LatestOnEmptyThrows) {
  ModelHistory h(3);
  EXPECT_THROW(h.latest(), std::out_of_range);
}

TEST(ModelHistory, ZeroCapacityRejected) {
  EXPECT_THROW(ModelHistory(0), std::invalid_argument);
}

TEST(ModelHistory, RejectedModelsNeverEnter) {
  // The defense only pushes on commit; this documents the contract that
  // the history is append-only through push().
  ModelHistory h(4);
  h.push(1, params(1.0f));
  const auto w1 = h.window_shared(4);
  // (no push for a rejected round)
  const auto w2 = h.window_shared(4);
  EXPECT_EQ(w1.size(), w2.size());
  EXPECT_EQ(w1.back(), w2.back());  // the same stored snapshot
}

}  // namespace
}  // namespace baffle
