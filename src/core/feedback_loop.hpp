#pragma once
// Feedback loop (Algorithm 1): collects validators' verdicts on the
// candidate global model and applies the quorum rule.
//
// Defender configurations (§VI-A):
//   BAFFLE-S  — only the server validates, on its own holdout; its single
//               verdict decides.
//   BAFFLE-C  — n validating clients vote; reject iff ≥ q vote "poisoned".
//   BAFFLE    — clients + server; the server's vote counts toward q.

#include <unordered_set>

#include "attack/malicious_voter.hpp"
#include "core/validate.hpp"

namespace baffle {

enum class DefenseMode { kServerOnly, kClientsOnly, kClientsAndServer };

const char* defense_mode_name(DefenseMode mode);

struct FeedbackConfig {
  DefenseMode mode = DefenseMode::kClientsAndServer;
  std::size_t quorum = 5;  // q: reject iff this many "poisoned" votes
  ValidatorConfig validator;
  /// The server's validator runs with its own τ margin: its verdict can
  /// decide alone (BAFFLE-S) and its holdout resolves benign jitter far
  /// more finely than a client shard, so it must be calibrated more
  /// conservatively than quorum members whose occasional false votes are
  /// absorbed by the q-of-n rule.
  double server_tau_margin = 1.5;

  /// The validator configuration the server instance actually uses.
  ValidatorConfig server_validator() const {
    ValidatorConfig cfg = validator;
    cfg.tau_margin = server_tau_margin;
    return cfg;
  }
};

struct FeedbackDecision {
  bool reject = false;
  std::size_t reject_votes = 0;  // after malicious-vote manipulation
  std::size_t total_voters = 0;
  std::vector<int> client_votes;          // aligned with validator ids
  std::vector<std::size_t> client_ids;    // who voted
  int server_vote = 0;
  bool server_voted = false;
  /// Validators with nothing to judge by: an empty shard, a history too
  /// short to score, or an abstaining server.
  std::size_t abstentions = 0;
};

/// Algorithm 1's tally: the one place the quorum rule is applied, for
/// the direct round path (BaffleDefense::evaluate) and the session
/// protocol (TransportRoundDriver::evaluate) alike. `votes[i]` is the
/// vote client `voter_ids[i]` cast (after any malicious strategy: 1
/// poisoned, 0 clean) and `abstained[i]` (empty: nobody) whether it had
/// nothing to judge by. An abstaining client still counts as a voter
/// that accepts; an abstaining server is excluded from the voter count
/// instead — in BAFFLE-S that means no voters at all, and the round
/// passes by default. `server_vote` is ignored unless the mode includes
/// the server.
///
/// Votes may have come off the wire, so before counting anything the
/// tally throws std::invalid_argument on a votes/voter_ids/abstained
/// length mismatch, a vote outside {0,1} or a voter id that appears
/// twice.
FeedbackDecision decide_quorum(DefenseMode mode, std::size_t quorum,
                               const std::vector<int>& votes,
                               const std::vector<std::size_t>& voter_ids,
                               int server_vote, bool server_abstained = false,
                               const std::vector<bool>& abstained = {});

/// Validates a defender configuration against the round size n it will
/// run with (Algorithm 1's q <= n, plus the window/threshold sanity the
/// validator depends on). Throws ContractViolation on a bad config.
/// Dropout may still leave an individual round with fewer than q voters
/// - per the paper's footnote 1 those rounds accept by default - so
/// this is a configuration-time contract, not a per-round one.
void validate_feedback_config(const FeedbackConfig& config,
                              std::size_t clients_per_round);

}  // namespace baffle
