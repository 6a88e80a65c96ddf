#include <gtest/gtest.h>

#include <stdexcept>

#include "core/feedback_loop.hpp"

// Protocol-boundary tests: votes decoded off the wire must be rejected
// before they are counted if they carry duplicate voter ids, out-of-range
// vote values, or a votes/ids length mismatch. The tally itself
// (decide_quorum) owns these checks, so every caller — in process or
// over the wire — goes through them.

namespace baffle {
namespace {

FeedbackDecision tally(const std::vector<int>& votes,
                       const std::vector<std::size_t>& ids,
                       DefenseMode mode = DefenseMode::kClientsOnly) {
  return decide_quorum(mode, /*quorum=*/1, votes, ids, /*server_vote=*/0);
}

TEST(VoteBoundary, WellFormedVotesPass) {
  EXPECT_NO_THROW(tally({1, 0, 1}, {3, 7, 9}));
  EXPECT_NO_THROW(tally({}, {}));
}

TEST(VoteBoundary, LengthMismatchRejected) {
  EXPECT_THROW(tally({1, 0}, {3}), std::invalid_argument);
  EXPECT_THROW(tally({1}, {3, 4}), std::invalid_argument);
  EXPECT_THROW(tally({}, {3}), std::invalid_argument);
  // Abstention flags must line up with the votes as well.
  EXPECT_THROW(decide_quorum(DefenseMode::kClientsOnly, 1, {1, 0}, {3, 4}, 0,
                             false, {true}),
               std::invalid_argument);
}

TEST(VoteBoundary, VotesOutsideBinaryRangeRejected) {
  EXPECT_THROW(tally({2}, {0}), std::invalid_argument);
  EXPECT_THROW(tally({-1}, {0}), std::invalid_argument);
  EXPECT_THROW(tally({1, 0, 17}, {0, 1, 2}), std::invalid_argument);
}

TEST(VoteBoundary, DuplicateVoterIdsRejected) {
  EXPECT_THROW(tally({1, 0}, {5, 5}), std::invalid_argument);
  EXPECT_THROW(tally({0, 1, 0}, {2, 9, 2}), std::invalid_argument);
  // The checks run in every mode, including the ones that ignore
  // client votes.
  EXPECT_THROW(tally({1, 0}, {5, 5}, DefenseMode::kServerOnly),
               std::invalid_argument);
  EXPECT_THROW(tally({1, 0}, {5, 5}, DefenseMode::kClientsAndServer),
               std::invalid_argument);
}

// A ballot-stuffing replay: the same client id voting "reject" twice
// must not be able to reach the quorum. The tally refuses the forged
// list outright; the legitimate tally below shows the quorum would have
// flipped had the duplicate been counted.
TEST(VoteBoundary, ReplayedRejectVoteCannotFlipQuorum) {
  EXPECT_THROW(decide_quorum(DefenseMode::kClientsOnly, /*quorum=*/2,
                             {1, 1, 0}, {5, 5, 6}, /*server_vote=*/0),
               std::invalid_argument);

  const auto decision =
      decide_quorum(DefenseMode::kClientsOnly, 2, {1, 0}, {5, 6}, 0);
  EXPECT_FALSE(decision.reject);  // 1 reject vote < q=2
  const auto would_be =
      decide_quorum(DefenseMode::kClientsOnly, 2, {1, 1, 0}, {5, 7, 6}, 0);
  EXPECT_TRUE(would_be.reject);  // the duplicate would have met quorum
}

TEST(VoteBoundary, ValidatedVotesFeedQuorumUnchanged) {
  const std::vector<int> votes{1, 1, 0, 1};
  const std::vector<std::size_t> ids{0, 1, 2, 3};
  const auto decision = decide_quorum(DefenseMode::kClientsAndServer,
                                      /*quorum=*/4, votes, ids,
                                      /*server_vote=*/1);
  EXPECT_TRUE(decision.reject);  // 3 client rejects + server = q
  EXPECT_EQ(decision.reject_votes, 4u);
  EXPECT_EQ(decision.total_voters, 5u);
}

}  // namespace
}  // namespace baffle
