#include "core/feedback_loop.hpp"

#include <gtest/gtest.h>

namespace baffle {
namespace {

std::vector<std::size_t> ids(std::size_t n) {
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

TEST(Quorum, ClientsOnlyRejectAtThreshold) {
  const std::vector<int> votes{1, 1, 1, 1, 1, 0, 0, 0, 0, 0};
  const auto d = decide_quorum(DefenseMode::kClientsOnly, 5, votes, ids(10), 0);
  EXPECT_TRUE(d.reject);
  EXPECT_EQ(d.reject_votes, 5u);
  EXPECT_EQ(d.total_voters, 10u);
  EXPECT_FALSE(d.server_voted);
}

TEST(Quorum, ClientsOnlyAcceptBelowThreshold) {
  const std::vector<int> votes{1, 1, 1, 1, 0, 0, 0, 0, 0, 0};
  const auto d = decide_quorum(DefenseMode::kClientsOnly, 5, votes, ids(10), 0);
  EXPECT_FALSE(d.reject);
  EXPECT_EQ(d.reject_votes, 4u);
}

TEST(Quorum, ServerOnlyIgnoresClientVotesAndQuorum) {
  const std::vector<int> votes{1, 1, 1};
  auto d = decide_quorum(DefenseMode::kServerOnly, 99, votes, ids(3), 0);
  EXPECT_FALSE(d.reject);
  EXPECT_TRUE(d.server_voted);
  EXPECT_EQ(d.total_voters, 1u);
  d = decide_quorum(DefenseMode::kServerOnly, 99, votes, ids(3), 1);
  EXPECT_TRUE(d.reject);
}

TEST(Quorum, ClientsAndServerCountsServerVote) {
  const std::vector<int> votes{1, 1, 1, 1, 0, 0, 0, 0, 0, 0};
  // 4 client votes + server vote = 5 >= q.
  const auto d =
      decide_quorum(DefenseMode::kClientsAndServer, 5, votes, ids(10), 1);
  EXPECT_TRUE(d.reject);
  EXPECT_EQ(d.reject_votes, 5u);
  EXPECT_EQ(d.total_voters, 11u);
}

TEST(Quorum, ClientsAndServerServerVoteAloneInsufficient) {
  const std::vector<int> votes(10, 0);
  const auto d =
      decide_quorum(DefenseMode::kClientsAndServer, 5, votes, ids(10), 1);
  EXPECT_FALSE(d.reject);
  EXPECT_EQ(d.reject_votes, 1u);
}

TEST(Quorum, ServerOnlyAbstentionMeansNoVerdict) {
  const std::vector<int> votes{1, 1, 1};
  const auto d = decide_quorum(DefenseMode::kServerOnly, 1, votes, ids(3), 1,
                               /*server_abstained=*/true);
  EXPECT_FALSE(d.reject);
  EXPECT_FALSE(d.server_voted);
  EXPECT_EQ(d.total_voters, 0u);
  EXPECT_EQ(d.reject_votes, 0u);
}

TEST(Quorum, ClientsAndServerAbstentionExcludesServer) {
  const std::vector<int> votes{1, 1, 1, 1, 0, 0, 0, 0, 0, 0};
  // An abstaining server must not be recorded as an accept vote: the
  // electorate shrinks to the 10 clients and the server's (stale) vote
  // value is ignored entirely.
  const auto d = decide_quorum(DefenseMode::kClientsAndServer, 5, votes,
                               ids(10), 1, /*server_abstained=*/true);
  EXPECT_FALSE(d.reject);
  EXPECT_FALSE(d.server_voted);
  EXPECT_EQ(d.total_voters, 10u);
  EXPECT_EQ(d.reject_votes, 4u);
}

TEST(Quorum, ClientsOnlyIgnoresServerAbstentionFlag) {
  const std::vector<int> votes{1, 1, 1, 1, 1, 0, 0, 0, 0, 0};
  const auto d = decide_quorum(DefenseMode::kClientsOnly, 5, votes, ids(10), 0,
                               /*server_abstained=*/true);
  EXPECT_TRUE(d.reject);
  EXPECT_EQ(d.total_voters, 10u);
}

TEST(Quorum, QuorumOneRejectsOnAnyVote) {
  const std::vector<int> votes{0, 0, 1};
  const auto d = decide_quorum(DefenseMode::kClientsOnly, 1, votes, ids(3), 0);
  EXPECT_TRUE(d.reject);
}

TEST(Quorum, MismatchedVotesThrow) {
  EXPECT_THROW(
      decide_quorum(DefenseMode::kClientsOnly, 1, {1, 0}, ids(3), 0),
      std::invalid_argument);
}

TEST(Quorum, DecisionCarriesVoteDetails) {
  const std::vector<int> votes{1, 0};
  const auto d = decide_quorum(DefenseMode::kClientsOnly, 2, votes, ids(2), 0);
  EXPECT_EQ(d.client_votes, votes);
  EXPECT_EQ(d.client_ids, ids(2));
}

TEST(Quorum, CountsClientAndServerAbstentions) {
  // An abstaining client is still a voter that accepts; an abstaining
  // server leaves the electorate. Both are counted as abstentions.
  const std::vector<int> votes{1, 0, 0, 1};
  const std::vector<bool> abstained{false, true, true, false};
  auto d = decide_quorum(DefenseMode::kClientsAndServer, 2, votes, ids(4), 1,
                         /*server_abstained=*/true, abstained);
  EXPECT_TRUE(d.reject);
  EXPECT_EQ(d.abstentions, 3u);
  EXPECT_EQ(d.total_voters, 4u);
  d = decide_quorum(DefenseMode::kClientsOnly, 2, votes, ids(4), 0,
                    /*server_abstained=*/true, abstained);
  EXPECT_EQ(d.abstentions, 2u);  // no server in BAFFLE-C
  d = decide_quorum(DefenseMode::kServerOnly, 2, {}, {}, 0,
                    /*server_abstained=*/true);
  EXPECT_EQ(d.abstentions, 1u);
  EXPECT_EQ(d.total_voters, 0u);
}

TEST(DefenseModeName, AllNamed) {
  EXPECT_STREQ(defense_mode_name(DefenseMode::kServerOnly), "BAFFLE-S");
  EXPECT_STREQ(defense_mode_name(DefenseMode::kClientsOnly), "BAFFLE-C");
  EXPECT_STREQ(defense_mode_name(DefenseMode::kClientsAndServer), "BAFFLE");
}

/// Property: for every (votes, q) the decision equals a direct count.
class QuorumSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(QuorumSweep, RejectIffCountReachesQ) {
  const auto [reject_count, q] = GetParam();
  std::vector<int> votes(10, 0);
  for (std::size_t i = 0; i < reject_count; ++i) votes[i] = 1;
  const auto d =
      decide_quorum(DefenseMode::kClientsOnly, q, votes, ids(10), 0);
  EXPECT_EQ(d.reject, reject_count >= q);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuorumSweep,
    ::testing::Combine(::testing::Values<std::size_t>(0, 2, 4, 5, 7, 10),
                       ::testing::Values<std::size_t>(1, 3, 5, 7, 9)));

}  // namespace
}  // namespace baffle
