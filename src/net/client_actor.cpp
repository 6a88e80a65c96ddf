#include "net/client_actor.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace baffle {

std::shared_ptr<const GlobalModel> SnapshotStore::intern(
    std::uint64_t version, const F32View& params) {
  MutexLock lock(mu_);
  if (const auto it = by_version_.find(version); it != by_version_.end()) {
    for (const auto& weak : it->second) {
      if (auto held = weak.lock(); held && params.same_bytes(held->params)) {
        return held;
      }
    }
  }
  // A new snapshot: first forget the ones no holder keeps any more, so
  // the table stays as small as the live windows.
  for (auto it = by_version_.begin(); it != by_version_.end();) {
    std::erase_if(it->second, [](const auto& weak) { return weak.expired(); });
    it = it->second.empty() ? by_version_.erase(it) : std::next(it);
  }
  GlobalModel model{version, {}};
  params.copy_into(model.params);
  auto snapshot = std::make_shared<const GlobalModel>(std::move(model));
  by_version_[version].push_back(snapshot);
  return snapshot;
}

std::size_t SnapshotStore::live() const {
  MutexLock lock(mu_);
  std::size_t n = 0;
  for (const auto& [version, snapshots] : by_version_) {
    for (const auto& weak : snapshots) n += weak.expired() ? 0 : 1;
  }
  return n;
}

ClientActor::ClientActor(ClientActorConfig config, MlpConfig arch,
                         const Dataset& shard,
                         ValidatorConfig validator_config,
                         UpdateProvider* provider,
                         std::shared_ptr<Channel> channel,
                         SnapshotStore& snapshots)
    : config_(config),
      arch_(std::move(arch)),
      num_params_(Mlp(arch_).num_params()),
      provider_(provider),
      channel_(std::move(channel)),
      snapshots_(snapshots),
      history_(config.lookback + 1) {
  if (provider_ == nullptr) {
    throw std::invalid_argument("ClientActor: null update provider");
  }
  if (channel_ == nullptr) {
    throw std::invalid_argument("ClientActor: null channel");
  }
  if (!shard.empty()) {
    validator_.emplace(shard, arch_, validator_config);
  }
}

WireView ClientActor::recv_expect(MsgType expected, WireBytes& frame) {
  auto received = channel_->recv_for(kRecvTimeout);
  if (!received) {
    throw std::runtime_error(std::string("ClientActor: timed out waiting "
                                         "for ") +
                             msg_type_name(expected));
  }
  frame = std::move(*received);
  WireView view = decode_frame_view(frame);
  const auto actual = static_cast<MsgType>(
      static_cast<std::uint8_t>(view.index()) + 1);
  if (actual != expected) {
    throw WireError(std::string("ClientActor: expected ") +
                    msg_type_name(expected) + ", got " +
                    msg_type_name(actual));
  }
  return view;
}

void ClientActor::check_advances(std::uint64_t version) const {
  if (!history_.empty() && version <= history_.latest().version) {
    throw WireError(
        "ClientActor: accepted version does not advance the local window");
  }
}

void ClientActor::check_length(const F32View& params) const {
  if (params.size() != num_params_) {
    throw WireError("ClientActor: a model payload of " +
                    std::to_string(params.size()) + " floats, the model has " +
                    std::to_string(num_params_) + " parameters");
  }
}

void ClientActor::accept(std::uint64_t version, const F32View& params) {
  check_advances(version);
  check_length(params);
  history_.push(snapshots_.intern(version, params));
}

void ClientActor::handle_training(Rng rng) {
  WireBytes frame;
  const auto broadcast = std::get<ModelBroadcastView>(
      recv_expect(MsgType::kModelBroadcast, frame));
  if (broadcast.purpose != ModelPurpose::kTraining) {
    throw WireError("ClientActor: training phase got a candidate model");
  }
  check_length(broadcast.params);
  const LeasedMlp global(arch_);
  global->set_parameters(broadcast.params);

  ClientUpdate reply;
  reply.round = broadcast.round;
  reply.client_id = config_.client_id;
  reply.update = provider_->update_for(config_.client_id, *global, rng);
  channel_->send(encode_frame(reply));
}

void ClientActor::handle_validation() {
  WireBytes frame;
  const std::uint64_t round = [&] {
    const auto delta =
        std::get<HistoryDeltaView>(recv_expect(MsgType::kHistoryDelta, frame));
    for (const auto& entry : delta.entries) {
      accept(entry.version, entry.params);
    }
    return delta.round;
  }();

  const auto candidate = std::get<ModelBroadcastView>(
      recv_expect(MsgType::kModelBroadcast, frame));
  if (candidate.purpose != ModelPurpose::kCandidate) {
    throw WireError("ClientActor: validation phase got a training model");
  }
  if (candidate.round != round) {
    throw WireError("ClientActor: candidate round mismatches history delta");
  }
  // Every validator of the round is sent the same candidate bytes, so
  // they judge, and hold pending, one shared snapshot of it.
  check_length(candidate.params);
  auto model = snapshots_.intern(candidate.version, candidate.params);

  // Honest verdict first; a malicious actor then lies on the wire. The
  // abstained flag always reports the honest state — the tally counts
  // abstentions independently of vote manipulation, exactly like the
  // in-process path.
  ValidationOutcome outcome{.abstained = true};  // no data: nothing to judge
  if (validator_) {
    outcome = validator_->validate(
        model->params, history_.window_shared(config_.lookback + 1));
  }

  pending_ = PendingCandidate{round, std::move(model)};

  Vote vote;
  vote.round = round;
  vote.client_id = config_.client_id;
  vote.vote = static_cast<std::uint8_t>(cast_vote(outcome.vote,
                                                  config_.strategy));
  vote.abstained = outcome.abstained ? 1 : 0;
  vote.phi = outcome.phi;
  vote.tau = outcome.tau;
  channel_->send(encode_frame(vote));
}

void ClientActor::handle_round_result() {
  WireBytes frame;
  const auto result =
      std::get<RoundResult>(recv_expect(MsgType::kRoundResult, frame));
  const bool judged_this_round =
      pending_ && pending_->round == result.round;
  if (judged_this_round && result.committed != 0) {
    check_advances(result.version);
    if (result.version != pending_->model->version) {
      throw WireError(
          "ClientActor: commit names another version than the candidate's");
    }
    history_.push(std::move(pending_->model));
    if (validator_) {
      validator_->notify_commit(result.version, history_.latest().params);
    }
  } else if (judged_this_round && validator_) {
    validator_->notify_reject();
  }
  pending_.reset();
}

}  // namespace baffle
