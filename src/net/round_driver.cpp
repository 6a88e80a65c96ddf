#include "net/round_driver.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace baffle {

TransportRoundDriver::TransportRoundDriver(
    InProcTransport& transport, FlServer& server, BaffleDefense& defense,
    const std::vector<FlClient>& clients, UpdateProvider& provider,
    const std::unordered_set<std::size_t>& malicious_ids,
    VoteStrategy strategy)
    : transport_(transport),
      server_(server),
      defense_(defense),
      clients_(clients),
      provider_(provider),
      malicious_ids_(malicious_ids),
      strategy_(strategy),
      tracker_(clients.size(),
               server.global_model().num_params() * sizeof(float),
               defense.config().validator.lookback + 1,
               /*compression=*/1.0),
      round_server_(RoundServerConfig{},
                    server.global_model().num_params()) {
  round_server_.set_tracker(&tracker_);
}

ClientActor& TransportRoundDriver::actor_for(std::size_t id) {
  if (const auto it = actors_.find(id); it != actors_.end()) {
    return *it->second;
  }
  if (id >= clients_.size()) {
    throw std::out_of_range("TransportRoundDriver: unknown client id");
  }
  DuplexChannel duplex = transport_.connect();
  round_server_.add_session(id, duplex.server);
  ClientActorConfig actor_config;
  actor_config.client_id = id;
  actor_config.lookback = defense_.config().validator.lookback;
  if (malicious_ids_.contains(id)) actor_config.strategy = strategy_;
  auto [it, inserted] = actors_.try_emplace(
      id, std::make_unique<ClientActor>(
              actor_config, server_.arch(), clients_[id].data(),
              defense_.config().validator, &provider_,
              std::move(duplex.client), snapshots_));
  return *it->second;
}

const ClientActor* TransportRoundDriver::actor(std::size_t id) const {
  const auto it = actors_.find(id);
  return it == actors_.end() ? nullptr : it->second.get();
}

std::vector<ClientActor*> TransportRoundDriver::actors_for(
    const std::vector<std::size_t>& ids) {
  std::vector<ClientActor*> actors;
  actors.reserve(ids.size());
  for (std::size_t id : ids) actors.push_back(&actor_for(id));
  return actors;
}

FlServer::Proposal TransportRoundDriver::propose_round(
    const std::vector<std::size_t>& contributors, Rng& round_rng) {
  if (contributors.empty()) {
    throw std::invalid_argument("propose_round: no contributors");
  }
  tracker_.add_round();
  round_contributors_ = contributors;
  round_validators_.clear();
  const std::uint64_t round = server_.current_round() + 1;

  // Same pre-fork discipline (and therefore the same rng stream) as
  // FlServer::propose_round_with: one fork per contributor, in order.
  std::vector<Rng> client_rngs;
  client_rngs.reserve(contributors.size());
  for (std::size_t i = 0; i < contributors.size(); ++i) {
    client_rngs.push_back(round_rng.fork());
  }

  const std::vector<ClientActor*> actors = actors_for(contributors);
  round_server_.broadcast_training(round, server_.version(),
                                   server_.global_model().parameters(),
                                   contributors);
  ThreadPool::global().parallel_for(actors.size(), [&](std::size_t i) {
    actors[i]->handle_training(client_rngs[i]);
  });

  auto collected =
      round_server_.collect(round, MsgType::kClientUpdate, contributors);
  std::vector<ParamVec> updates;
  updates.reserve(collected.messages.size());
  for (auto& msg : collected.messages) {
    updates.push_back(std::move(std::get<ClientUpdate>(msg).update));
  }
  return server_.aggregate_updates(std::move(updates), collected.responders);
}

FeedbackDecision TransportRoundDriver::evaluate(
    const FlServer::Proposal& proposal,
    const std::vector<std::size_t>& validating_ids) {
  const FeedbackConfig& feedback = defense_.config();
  const ModelWindow window = defense_.current_window();

  std::vector<ClientActor*> actors;
  WireBytes candidate;
  if (feedback.mode != DefenseMode::kServerOnly && !validating_ids.empty()) {
    round_validators_ = validating_ids;
    actors = actors_for(validating_ids);
    // The candidate's version-on-commit, so validators can promote it
    // into their windows without a second download. Encoded once: every
    // validator is sent the same bytes.
    candidate = encode_model_broadcast(proposal.round, server_.version() + 1,
                                       ModelPurpose::kCandidate,
                                       proposal.candidate_params);
  }
  // The server validates locally (its vote never crosses a wire), as
  // one more task beside the client actors, like BaffleDefense::evaluate.
  ValidationOutcome server_outcome;
  const bool use_server = feedback.mode != DefenseMode::kClientsOnly &&
                          defense_.server_validator() != nullptr;
  ThreadPool::global().parallel_for(actors.size() + 1, [&](std::size_t i) {
    if (i < actors.size()) {
      // Each validator's frames are sent from its own task, just before
      // its actor reads them, so at most pool-size deltas are in flight.
      round_server_.send_validation(validating_ids[i], proposal.round, window,
                                    candidate);
      actors[i]->handle_validation();
    } else if (use_server) {
      server_outcome = defense_.server_validator()->validate(
          proposal.candidate_params, window);
    }
  });

  // The votes that arrived, in validator order. Missing voters
  // (deadline) are simply absent — footnote 1's accept-by-default falls
  // out of tallying the votes that arrived.
  std::vector<int> votes;
  std::vector<std::size_t> voters;
  std::vector<bool> abstained;
  if (!actors.empty()) {
    auto collected =
        round_server_.collect(proposal.round, MsgType::kVote, validating_ids);
    for (const WireMessage& msg : collected.messages) {
      const Vote& vote = std::get<Vote>(msg);
      votes.push_back(vote.vote);
      abstained.push_back(vote.abstained != 0);
    }
    voters = std::move(collected.responders);
  }
  return decide_quorum(feedback.mode, feedback.quorum, votes, voters,
                       server_outcome.vote,
                       use_server && server_outcome.abstained, abstained);
}

void TransportRoundDriver::finish_round(const FlServer::Proposal& proposal,
                                        bool committed, std::uint64_t version,
                                        const FeedbackDecision& decision) {
  RoundResult result;
  result.round = proposal.round;
  result.committed = committed ? 1 : 0;
  result.version = version;
  result.reject_votes = static_cast<std::uint32_t>(decision.reject_votes);
  result.total_voters = static_cast<std::uint32_t>(decision.total_voters);

  std::vector<std::size_t> participants = round_contributors_;
  for (std::size_t id : round_validators_) {
    if (std::find(participants.begin(), participants.end(), id) ==
        participants.end()) {
      participants.push_back(id);
    }
  }
  round_server_.finish_round(result, participants, round_validators_);
  // Actors consume the result inline: promotion/rollback is cheap and
  // ordering it here keeps the round loop free of trailing tasks.
  for (std::size_t id : participants) {
    actor_for(id).handle_round_result();
  }
  round_contributors_.clear();
  round_validators_.clear();
}

}  // namespace baffle
