#include "net/round_server.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

namespace baffle {

RoundServer::RoundServer(RoundServerConfig config,
                         std::size_t expected_params)
    : config_(config), expected_params_(expected_params) {
  if (expected_params_ == 0) {
    throw std::invalid_argument("RoundServer: model has no parameters");
  }
}

void RoundServer::add_session(std::size_t client_id,
                              std::shared_ptr<Channel> channel) {
  if (channel == nullptr) {
    throw std::invalid_argument("RoundServer: null channel");
  }
  MutexLock lock(mu_);
  sessions_[client_id] = Session{std::move(channel), kNeverSynced};
}

bool RoundServer::has_session(std::size_t client_id) const {
  MutexLock lock(mu_);
  return sessions_.contains(client_id);
}

RoundServer::Session& RoundServer::session_for(std::size_t client_id) {
  const auto it = sessions_.find(client_id);
  if (it == sessions_.end()) {
    throw std::out_of_range("RoundServer: no session for client");
  }
  return it->second;
}

std::uint64_t RoundServer::synced_version(std::size_t client_id) const {
  MutexLock lock(mu_);
  const auto it = sessions_.find(client_id);
  if (it == sessions_.end()) {
    throw std::out_of_range("RoundServer: no session for client");
  }
  return it->second.synced_version;
}

void RoundServer::send_frame(std::size_t client_id, WireBytes frame,
                             CommCategory category) {
  if (tracker_) tracker_->add_bytes(category, frame.size());
  session_for(client_id).channel->send(std::move(frame));
}

void RoundServer::send_to_all(const std::vector<std::size_t>& ids,
                              WireBytes frame, CommCategory category) {
  if (ids.empty()) return;
  for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
    send_frame(ids[i], frame, category);
  }
  send_frame(ids.back(), std::move(frame), category);
}

void RoundServer::broadcast_training(
    std::uint64_t round, std::uint64_t version, const ParamVec& global,
    const std::vector<std::size_t>& contributors) {
  WireBytes frame =
      encode_model_broadcast(round, version, ModelPurpose::kTraining, global);
  MutexLock lock(mu_);
  send_to_all(contributors, std::move(frame), CommCategory::kModelDownload);
}

std::optional<WireMessage> RoundServer::admit(const WireBytes& frame,
                                              std::size_t client_id,
                                              std::uint64_t round,
                                              MsgType expected) {
  const CommCategory category = expected == MsgType::kClientUpdate
                                    ? CommCategory::kUpdateUpload
                                    : CommCategory::kControl;
  if (tracker_) tracker_->add_bytes(category, frame.size());

  WireMessage msg;
  try {
    msg = decode_frame(frame);
  } catch (const std::exception&) {
    ++stats_.decode_errors;
    return std::nullopt;
  }

  const auto type =
      static_cast<MsgType>(static_cast<std::uint8_t>(msg.index()) + 1);
  if (type != expected) {
    ++stats_.unexpected_type;
    return std::nullopt;
  }
  std::uint64_t msg_round = 0;
  std::uint64_t msg_client = 0;
  if (const auto* update = std::get_if<ClientUpdate>(&msg)) {
    msg_round = update->round;
    msg_client = update->client_id;
    if (update->update.size() != expected_params_) {
      ++stats_.bad_update_size;
      return std::nullopt;
    }
    // Wire decode keeps NaN/Inf bit-exact. Secure aggregation has no
    // fixed-point word for them, and a plain FedAvg sum would carry
    // them into the candidate.
    if (!std::all_of(update->update.begin(), update->update.end(),
                     [](float x) { return std::isfinite(x); })) {
      ++stats_.bad_update_value;
      return std::nullopt;
    }
  } else {  // collect() admits only updates and votes
    const Vote& vote = std::get<Vote>(msg);
    msg_round = vote.round;
    msg_client = vote.client_id;
  }
  if (msg_round != round) {
    ++stats_.wrong_round;
    return std::nullopt;
  }
  if (msg_client != client_id) {
    ++stats_.wrong_client;
    return std::nullopt;
  }
  return msg;
}

void RoundServer::send_validation(std::size_t validator, std::uint64_t round,
                                  const ModelWindow& window,
                                  const WireBytes& candidate) {
  std::uint64_t synced = kNeverSynced;
  {
    MutexLock lock(mu_);
    synced = session_for(validator).synced_version;
  }
  // Window versions increase, so the entries the validator is missing
  // are a suffix of the window.
  const auto missing = [&](const auto& entry) {
    return synced == kNeverSynced || entry->version > synced;
  };
  const auto first = std::find_if(window.begin(), window.end(), missing);
  WireBytes delta = encode_history_delta(round, std::span(first, window.end()));

  MutexLock lock(mu_);
  send_frame(validator, std::move(delta), CommCategory::kHistory);
  if (!window.empty()) {
    session_for(validator).synced_version = window.back()->version;
  }
  send_frame(validator, candidate, CommCategory::kModelDownload);
}

RoundServer::Collection RoundServer::collect(
    std::uint64_t round, MsgType type,
    const std::vector<std::size_t>& expected) {
  if (type != MsgType::kClientUpdate && type != MsgType::kVote) {
    throw std::invalid_argument(
        "RoundServer: clients send only updates and votes");
  }
  std::vector<std::optional<WireMessage>> slots(expected.size());
  std::size_t remaining = expected.size();
  const auto deadline =
      std::chrono::steady_clock::now() + (type == MsgType::kClientUpdate
                                              ? config_.update_timeout
                                              : config_.vote_timeout);
  for (;;) {
    bool progressed = false;
    {
      MutexLock lock(mu_);
      for (std::size_t i = 0; i < expected.size(); ++i) {
        if (slots[i]) continue;
        // Drain everything queued on this session, past rejected frames
        // too, before marking it answered: a duplicate sent in the same
        // burst is seen (and rejected) rather than left to poison the
        // next round's phase, and every frame read is either kept or
        // counted.
        Channel& channel = *session_for(expected[i]).channel;
        while (auto frame = channel.try_recv()) {
          progressed = true;
          auto msg = admit(*frame, expected[i], round, type);
          if (!msg) continue;
          if (slots[i]) {
            ++stats_.duplicates;
          } else {
            slots[i] = std::move(msg);
            --remaining;
          }
        }
      }
    }
    if (remaining == 0 || std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    if (!progressed) std::this_thread::yield();
  }

  Collection out;
  MutexLock lock(mu_);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (slots[i]) {
      out.messages.push_back(std::move(*slots[i]));
      out.responders.push_back(expected[i]);
    } else {
      out.dropped.push_back(expected[i]);
      ++stats_.timeouts;
    }
  }
  return out;
}

void RoundServer::finish_round(const RoundResult& result,
                               const std::vector<std::size_t>& participants,
                               const std::vector<std::size_t>& validators) {
  WireBytes frame = encode_frame(result);
  MutexLock lock(mu_);
  send_to_all(participants, std::move(frame), CommCategory::kControl);
  if (result.committed != 0) {
    // Validators promote the candidate they already hold into their
    // window, so their sync level advances to the committed version.
    for (std::size_t id : validators) {
      session_for(id).synced_version = result.version;
    }
  }
}

ProtocolStats RoundServer::protocol_stats() const {
  MutexLock lock(mu_);
  return stats_;
}

std::uint64_t RoundServer::wire_bytes() const {
  MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [id, session] : sessions_) {
    total += session.channel->bytes_sent() + session.channel->bytes_received();
  }
  return total;
}

}  // namespace baffle
