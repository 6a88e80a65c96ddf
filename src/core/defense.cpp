#include "core/defense.hpp"

#include <stdexcept>

#include "util/contracts.hpp"
#include "util/thread_pool.hpp"

namespace baffle {

BaffleDefense::BaffleDefense(MlpConfig arch, FeedbackConfig config,
                             const Dataset& server_holdout)
    : arch_(std::move(arch)),
      config_(config),
      history_(config.validator.lookback + 1) {
  BAFFLE_CHECK(config.quorum >= 1,
               "quorum must require at least one poisoned vote");
  const bool needs_server = config.mode != DefenseMode::kClientsOnly;
  BAFFLE_CHECK(!needs_server || !server_holdout.empty(),
               "server validation modes need a server holdout");
  if (!server_holdout.empty()) {
    server_validator_.emplace(server_holdout, arch_,
                              config.server_validator());
  }
}

void BaffleDefense::on_commit(std::uint64_t version, ParamVec params) {
  history_.push(version, std::move(params));
  const GlobalModel& latest = history_.latest();
  for (auto& [id, validator] : client_validators_) {
    validator.notify_commit(latest.version, latest.params);
  }
  if (server_validator_) {
    server_validator_->notify_commit(latest.version, latest.params);
  }
}

void BaffleDefense::on_reject() {
  for (auto& [id, validator] : client_validators_) {
    validator.notify_reject();
  }
  if (server_validator_) server_validator_->notify_reject();
}

bool BaffleDefense::ready() const {
  return history_.size() >= config_.validator.min_variations + 1;
}

ModelWindow BaffleDefense::current_window() const {
  return history_.window_shared(config_.validator.lookback + 1);
}

Validator* BaffleDefense::client_validator(
    std::size_t id, const std::vector<FlClient>& clients) {
  if (auto it = client_validators_.find(id);
      it != client_validators_.end()) {
    return &it->second;
  }
  if (id >= clients.size()) {
    throw std::out_of_range("BaffleDefense: unknown client id");
  }
  if (clients[id].data().empty()) return nullptr;
  auto [it, inserted] = client_validators_.try_emplace(
      id, clients[id].data(), arch_, config_.validator);
  return &it->second;
}

Validator* BaffleDefense::server_validator() {
  return server_validator_ ? &*server_validator_ : nullptr;
}

FeedbackDecision BaffleDefense::evaluate(
    const ParamVec& candidate, const std::vector<std::size_t>& validating_ids,
    const std::vector<FlClient>& clients,
    const std::unordered_set<std::size_t>& malicious_ids,
    VoteStrategy strategy) {
  const ModelWindow window = current_window();
  BAFFLE_DCHECK(window.size() <= config_.validator.lookback + 1,
                "validators receive at most the last l+1 accepted models");

  // Materialize validators serially (map mutation), then vote in
  // parallel (independent objects).
  std::vector<Validator*> validators;
  const bool use_clients = config_.mode != DefenseMode::kServerOnly;
  if (use_clients) {
    validators.reserve(validating_ids.size());
    for (std::size_t id : validating_ids) {
      validators.push_back(client_validator(id, clients));
    }
  }

  // An empty shard has nothing to judge by: that validator abstains.
  std::vector<ValidationOutcome> outcomes(validators.size(),
                                          ValidationOutcome{.abstained = true});
  ValidationOutcome server_outcome;
  const bool use_server =
      config_.mode != DefenseMode::kClientsOnly && server_validator_;

  ThreadPool::global().parallel_for(
      validators.size() + 1, [&](std::size_t i) {
        if (i == validators.size()) {
          if (use_server) {
            server_outcome = server_validator_->validate(candidate, window);
          }
          return;
        }
        if (validators[i] != nullptr) {
          outcomes[i] = validators[i]->validate(candidate, window);
        }
      });

  std::vector<int> votes;
  std::vector<bool> abstained;
  votes.reserve(outcomes.size());
  abstained.reserve(outcomes.size());
  for (const ValidationOutcome& outcome : outcomes) {
    votes.push_back(outcome.vote);
    abstained.push_back(outcome.abstained);
  }
  const std::vector<std::size_t> voter_ids =
      use_clients ? validating_ids : std::vector<std::size_t>{};
  return decide_quorum(
      config_.mode, config_.quorum,
      apply_vote_strategy(votes, voter_ids, malicious_ids, strategy),
      voter_ids, server_outcome.vote, use_server && server_outcome.abstained,
      abstained);
}

}  // namespace baffle
