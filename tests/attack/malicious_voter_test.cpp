#include "attack/malicious_voter.hpp"

#include <gtest/gtest.h>

namespace baffle {
namespace {

TEST(VoteStrategy, HonestLeavesVotesUntouched) {
  const std::vector<int> votes{1, 0, 1};
  const std::vector<std::size_t> ids{10, 11, 12};
  EXPECT_EQ(apply_vote_strategy(votes, ids, {10, 12}, VoteStrategy::kHonest),
            votes);
}

TEST(VoteStrategy, AlwaysAcceptFlipsMaliciousToClean) {
  const std::vector<int> votes{1, 1, 1};
  const std::vector<std::size_t> ids{10, 11, 12};
  const auto out =
      apply_vote_strategy(votes, ids, {11}, VoteStrategy::kAlwaysAccept);
  EXPECT_EQ(out, (std::vector<int>{1, 0, 1}));
}

TEST(VoteStrategy, AlwaysRejectFlipsMaliciousToPoisoned) {
  const std::vector<int> votes{0, 0, 0};
  const std::vector<std::size_t> ids{10, 11, 12};
  const auto out =
      apply_vote_strategy(votes, ids, {10, 12}, VoteStrategy::kAlwaysReject);
  EXPECT_EQ(out, (std::vector<int>{1, 0, 1}));
}

TEST(VoteStrategy, HonestVotersUnaffected) {
  const std::vector<int> votes{1, 0};
  const std::vector<std::size_t> ids{1, 2};
  const auto out =
      apply_vote_strategy(votes, ids, {99}, VoteStrategy::kAlwaysReject);
  EXPECT_EQ(out, votes);
}

TEST(VoteStrategy, SizeMismatchThrows) {
  EXPECT_THROW(
      apply_vote_strategy({1}, {1, 2}, {}, VoteStrategy::kHonest),
      std::invalid_argument);
}

TEST(VoteStrategy, CastVoteMapsEachStrategy) {
  for (const int honest : {0, 1}) {
    EXPECT_EQ(cast_vote(honest, VoteStrategy::kHonest), honest);
    EXPECT_EQ(cast_vote(honest, VoteStrategy::kAlwaysAccept), 0);
    EXPECT_EQ(cast_vote(honest, VoteStrategy::kAlwaysReject), 1);
  }
}

TEST(QuorumSafety, PaperExampleBounds) {
  // n = 10, n_M = 1, ρ = 0.2: safe range is (1 + 0.2*9, 0.8*9] =
  // (2.8, 7.2] -> q in {3..7}.
  EXPECT_FALSE(quorum_is_safe(10, 1, 0.2, 2));
  EXPECT_TRUE(quorum_is_safe(10, 1, 0.2, 3));
  EXPECT_TRUE(quorum_is_safe(10, 1, 0.2, 7));
  EXPECT_FALSE(quorum_is_safe(10, 1, 0.2, 8));
}

TEST(QuorumSafety, NoSafeQuorumWhenTooManyMalicious) {
  // n_M = 5 of n = 10 (no honest majority): no q can work.
  for (std::size_t q = 1; q <= 10; ++q) {
    EXPECT_FALSE(quorum_is_safe(10, 5, 0.0, q));
  }
}

TEST(QuorumSafety, AllMaliciousNeverSafe) {
  EXPECT_FALSE(quorum_is_safe(10, 10, 0.0, 5));
}

TEST(QuorumSafety, RhoOutOfRangeThrows) {
  EXPECT_THROW(quorum_is_safe(10, 1, -0.1, 5), std::invalid_argument);
  EXPECT_THROW(quorum_is_safe(10, 1, 1.1, 5), std::invalid_argument);
}

TEST(MaxTolerableMalicious, PaperValues) {
  // ρ = 0.4, n = 10 -> n_M < 3.75 -> 3; ρ = 0.5 -> n_M < 3.33 -> 3.
  EXPECT_EQ(max_tolerable_malicious(10, 0.4), 3u);
  EXPECT_EQ(max_tolerable_malicious(10, 0.5), 3u);
}

TEST(MaxTolerableMalicious, PerfectJudgmentApproachesHalf) {
  // ρ = 0 -> n_M < n/2.
  EXPECT_EQ(max_tolerable_malicious(10, 0.0), 4u);
  EXPECT_EQ(max_tolerable_malicious(11, 0.0), 5u);
}

TEST(MaxTolerableMalicious, StrictBoundAtIntegerBoundary) {
  // (1-ρ)n/(2-ρ) exactly integral: ρ = 0, n = 8 -> bound 4, n_M must be
  // strictly below -> 3.
  EXPECT_EQ(max_tolerable_malicious(8, 0.0), 3u);
}

TEST(MaxTolerableMalicious, BadRhoThrows) {
  EXPECT_THROW(max_tolerable_malicious(10, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace baffle
