#pragma once
// Byzantine behaviour in the feedback loop (§IV-B "Handling malicious
// votes"): attacker-controlled validating clients may misreport their
// verdict — declaring poisoned models clean (stealth) or clean models
// poisoned (denial of service).

#include <cstddef>
#include <unordered_set>
#include <vector>

namespace baffle {

enum class VoteStrategy {
  kHonest,        // report the true verdict
  kAlwaysAccept,  // collude with the attacker: vote "clean" always
  kAlwaysReject,  // DoS: vote "poisoned" always
};

/// The vote a validator following `strategy` casts when its honest
/// verdict is `honest_vote` (1 = poisoned): the one place a strategy is
/// applied, by apply_vote_strategy in process and by a malicious client
/// actor on the wire (src/net).
int cast_vote(int honest_vote, VoteStrategy strategy);

/// Applies the strategy of malicious voters to the honest verdicts.
/// `votes[i]` is the verdict (1 = poisoned) of `voter_ids[i]`.
std::vector<int> apply_vote_strategy(
    const std::vector<int>& votes, const std::vector<std::size_t>& voter_ids,
    const std::unordered_set<std::size_t>& malicious_ids,
    VoteStrategy strategy);

/// Quorum-threshold bound of §IV-B. With n validators, n_M of them
/// malicious, and a fraction ρ of the honest validators unintentionally
/// voting *wrong* (non-uniform data), q is safe iff
///     n_M + ρ(n − n_M) < q ≤ (1 − ρ)(n − n_M):
/// the left bound stops malicious + naive voters from rejecting a clean
/// model; the right bound lets the aware honest voters reject a poisoned
/// one.
bool quorum_is_safe(std::size_t n, std::size_t n_malicious, double rho,
                    std::size_t q);

/// Largest tolerable number of malicious validators for given ρ and n:
/// requiring (1 − ρ)(n − n_M) > n_M yields n_M < (1 − ρ)·n / (2 − ρ)
/// (paper: ρ = 0.4, n = 10 → n_M < 3.75; ρ = 0.5 → n_M < 3.33).
/// Returns the largest integer n_M satisfying the strict bound.
std::size_t max_tolerable_malicious(std::size_t n, double rho);

}  // namespace baffle
