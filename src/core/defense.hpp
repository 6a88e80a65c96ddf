#pragma once
// BaffleDefense — top-level orchestrator tying Algorithm 1 + Algorithm 2
// into the FL round loop. This is the public entry point of the library:
//
//   BaffleDefense defense(arch, config, server_holdout);
//   ...
//   auto proposal = server.propose_round(provider, rng);
//   auto decision = defense.evaluate(proposal.candidate_params,
//                                    proposal.contributors, clients,
//                                    malicious_ids, strategy);
//   if (decision.reject) { server.discard(proposal);
//                          defense.on_reject(); }
//   else { server.commit(proposal);
//          defense.on_commit(server.version(),
//                            proposal.candidate_params); }
//
// Client validators persist across rounds so the error profiles of their
// history windows are cached; validation of the n validators runs on the
// global thread pool (each validator is an independent object).

#include <map>
#include <optional>

#include "core/feedback_loop.hpp"

namespace baffle {

class BaffleDefense {
 public:
  /// `server_holdout` may be empty for the BAFFLE-C configuration; it is
  /// required for BAFFLE-S and BAFFLE. Validators keep what they need of
  /// it and of the clients' shards (labels, packed features), not a copy.
  BaffleDefense(MlpConfig arch, FeedbackConfig config,
                const Dataset& server_holdout);

  /// Records an accepted global model into the history and notifies
  /// every materialized validator (notify_commit), promoting each
  /// pending candidate evaluation under the committed version.
  void on_commit(std::uint64_t version, ParamVec params);

  /// Records a rejected round: validators drop the candidate state they
  /// held for promotion (the model was rolled back, its evaluation must
  /// never be attributed to a committed version).
  void on_reject();

  /// True once the history holds enough models for validators to score
  /// (min_variations + 1).
  bool ready() const;

  /// Runs the feedback loop for one proposed model. `validating_ids`
  /// index into `clients`; ids in `malicious_ids` vote per `strategy`
  /// instead of honestly. Clients with empty shards abstain (vote 0).
  FeedbackDecision evaluate(
      const ParamVec& candidate,
      const std::vector<std::size_t>& validating_ids,
      const std::vector<FlClient>& clients,
      const std::unordered_set<std::size_t>& malicious_ids,
      VoteStrategy strategy);

  /// The ℓ+1-model window validators receive this round (zero-copy:
  /// entries alias the stored history snapshots).
  ModelWindow current_window() const;

  const ModelHistory& history() const { return history_; }
  const FeedbackConfig& config() const { return config_; }

  /// Per-client validator accessor (creates it on first use). Returns
  /// nullptr for clients with empty shards.
  Validator* client_validator(std::size_t id,
                              const std::vector<FlClient>& clients);

  Validator* server_validator();

 private:
  MlpConfig arch_;
  FeedbackConfig config_;
  ModelHistory history_;
  std::map<std::size_t, Validator> client_validators_;
  std::optional<Validator> server_validator_;
};

}  // namespace baffle
