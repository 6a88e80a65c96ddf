#include "attack/malicious_voter.hpp"

#include <cmath>
#include <stdexcept>

namespace baffle {

int cast_vote(int honest_vote, VoteStrategy strategy) {
  switch (strategy) {
    case VoteStrategy::kHonest: return honest_vote;
    case VoteStrategy::kAlwaysAccept: return 0;
    case VoteStrategy::kAlwaysReject: return 1;
  }
  return honest_vote;
}

std::vector<int> apply_vote_strategy(
    const std::vector<int>& votes, const std::vector<std::size_t>& voter_ids,
    const std::unordered_set<std::size_t>& malicious_ids,
    VoteStrategy strategy) {
  if (votes.size() != voter_ids.size()) {
    throw std::invalid_argument("apply_vote_strategy: size mismatch");
  }
  std::vector<int> out = votes;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (malicious_ids.contains(voter_ids[i])) {
      out[i] = cast_vote(out[i], strategy);
    }
  }
  return out;
}

bool quorum_is_safe(std::size_t n, std::size_t n_malicious, double rho,
                    std::size_t q) {
  if (n_malicious >= n) return false;
  if (rho < 0.0 || rho > 1.0) {
    throw std::invalid_argument("quorum_is_safe: rho out of [0,1]");
  }
  const double honest = static_cast<double>(n - n_malicious);
  const double lower = static_cast<double>(n_malicious) + rho * honest;
  const double upper = (1.0 - rho) * honest;
  const double qd = static_cast<double>(q);
  return qd > lower && qd <= upper;
}

std::size_t max_tolerable_malicious(std::size_t n, double rho) {
  if (rho < 0.0 || rho >= 1.0) {
    throw std::invalid_argument("max_tolerable_malicious: rho out of [0,1)");
  }
  const double bound =
      (1.0 - rho) * static_cast<double>(n) / (2.0 - rho);
  // Strict inequality: n_M must be < bound.
  auto n_m = static_cast<std::size_t>(std::ceil(bound) - 1);
  if (static_cast<double>(n_m) >= bound) {
    n_m = n_m == 0 ? 0 : n_m - 1;
  }
  return n_m;
}

}  // namespace baffle
