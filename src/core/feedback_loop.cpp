#include "core/feedback_loop.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "util/contracts.hpp"

namespace baffle {

const char* defense_mode_name(DefenseMode mode) {
  switch (mode) {
    case DefenseMode::kServerOnly: return "BAFFLE-S";
    case DefenseMode::kClientsOnly: return "BAFFLE-C";
    case DefenseMode::kClientsAndServer: return "BAFFLE";
  }
  return "?";
}

FeedbackDecision decide_quorum(DefenseMode mode, std::size_t quorum,
                               const std::vector<int>& votes,
                               const std::vector<std::size_t>& voter_ids,
                               int server_vote, bool server_abstained,
                               const std::vector<bool>& abstained) {
  if (votes.size() != voter_ids.size() ||
      (!abstained.empty() && abstained.size() != votes.size())) {
    throw std::invalid_argument(
        "decide_quorum: votes, voter ids and abstentions do not align");
  }
  for (int v : votes) {
    if (v != 0 && v != 1) {
      throw std::invalid_argument("decide_quorum: vote outside {0,1}");
    }
  }
  std::unordered_set<std::size_t> seen;
  seen.reserve(voter_ids.size());
  for (std::size_t id : voter_ids) {
    if (!seen.insert(id).second) {
      throw std::invalid_argument("decide_quorum: duplicate voter id");
    }
  }

  FeedbackDecision decision;
  decision.client_votes = votes;
  decision.client_ids = voter_ids;
  const bool server_votes = mode != DefenseMode::kClientsOnly;
  if (server_votes && server_abstained) ++decision.abstentions;

  if (mode == DefenseMode::kServerOnly) {
    if (server_abstained) {
      // No usable verdict: nobody voted, so nothing can be rejected.
      return decision;
    }
    decision.server_vote = server_vote;
    decision.server_voted = true;
    decision.total_voters = 1;
    decision.reject_votes = server_vote != 0 ? 1 : 0;
    decision.reject = server_vote != 0;
    return decision;
  }

  decision.abstentions += static_cast<std::size_t>(
      std::count(abstained.begin(), abstained.end(), true));
  decision.reject_votes =
      static_cast<std::size_t>(std::count(votes.begin(), votes.end(), 1));
  decision.total_voters = votes.size();
  if (server_votes && !server_abstained) {
    decision.server_vote = server_vote;
    decision.server_voted = true;
    decision.total_voters += 1;
    if (server_vote != 0) ++decision.reject_votes;
  }
  decision.reject = decision.reject_votes >= quorum;
  return decision;
}

void validate_feedback_config(const FeedbackConfig& config,
                              std::size_t clients_per_round) {
  BAFFLE_CHECK(config.quorum >= 1,
               "quorum must require at least one poisoned vote");
  if (config.mode != DefenseMode::kServerOnly) {
    // n voting clients, plus the server's vote in the combined mode: a
    // quorum above that can never be reached, which silently disables
    // rejection ("no backdoor" verdicts forever).
    const std::size_t max_voters =
        clients_per_round +
        (config.mode == DefenseMode::kClientsAndServer ? 1 : 0);
    BAFFLE_CHECK(config.quorum <= max_voters,
                 "quorum q must be reachable by a full round of voters");
  }
  BAFFLE_CHECK(config.validator.lookback >= 2,
               "look-back window must cover at least 2 accepted models");
  BAFFLE_CHECK(config.validator.min_variations >= 1,
               "abstention threshold must require at least one variation");
  // BaffleDefense::ready() waits for min_variations + 1 accepted models,
  // and the history keeps only lookback + 1 of them: a shorter window
  // would leave the defense off for the whole run.
  BAFFLE_CHECK(config.validator.lookback >= config.validator.min_variations,
               ("look-back window lookback = " +
                std::to_string(config.validator.lookback) +
                " is below min_variations = " +
                std::to_string(config.validator.min_variations) +
                ", so the defense would never turn on")
                   .c_str());
  BAFFLE_CHECK(config.validator.tau_margin > 0.0,
               "tau margin must be positive");
  BAFFLE_CHECK(config.server_tau_margin > 0.0,
               "server tau margin must be positive");
}

}  // namespace baffle
