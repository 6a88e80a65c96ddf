#include "net/round_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <thread>

namespace baffle {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kParams = 3;

RoundServerConfig fast_config() {
  RoundServerConfig config;
  config.update_timeout = 50ms;
  config.vote_timeout = 50ms;
  return config;
}

/// Server under test plus the client-side channel ends, hand-driven by
/// the test body (no actors involved).
struct Rig {
  InProcTransport transport;
  RoundServer server{fast_config(), kParams};
  std::vector<std::shared_ptr<Channel>> clients;

  explicit Rig(std::size_t n) {
    for (std::size_t id = 0; id < n; ++id) {
      auto pair = transport.connect();
      server.add_session(id, pair.server);
      clients.push_back(pair.client);
    }
  }

  void send(std::size_t id, const WireMessage& msg) {
    clients[id]->send(encode_frame(msg));
  }

  ClientUpdate update_from(std::size_t id, std::uint64_t round,
                           float fill = 1.0f) {
    ClientUpdate u;
    u.round = round;
    u.client_id = id;
    u.update = ParamVec(kParams, fill);
    return u;
  }

  Vote vote_from(std::size_t id, std::uint64_t round, std::uint8_t v) {
    Vote vote;
    vote.round = round;
    vote.client_id = id;
    vote.vote = v;
    return vote;
  }
};

ModelWindow window_of(std::initializer_list<std::uint64_t> versions) {
  ModelWindow window;
  for (std::uint64_t v : versions) {
    window.push_back(std::make_shared<const GlobalModel>(
        GlobalModel{v, ParamVec(kParams, static_cast<float>(v))}));
  }
  return window;
}

/// Runs the validation send for each of `validators`, as
/// TransportRoundDriver's per-validator tasks do.
void send_validation(RoundServer& server, std::uint64_t round,
                     std::uint64_t version, const ParamVec& candidate,
                     const ModelWindow& window,
                     std::initializer_list<std::size_t> validators) {
  const WireBytes frame = encode_model_broadcast(
      round, version, ModelPurpose::kCandidate, candidate);
  for (std::size_t id : validators) {
    server.send_validation(id, round, window, frame);
  }
}

TEST(RoundServer, BroadcastsTrainingModelToContributors) {
  Rig rig(3);
  rig.server.broadcast_training(1, 0, ParamVec(kParams, 0.5f), {0, 2});
  for (std::size_t id : {0u, 2u}) {
    auto frame = rig.clients[id]->try_recv();
    ASSERT_TRUE(frame) << "client " << id;
    const auto m = std::get<ModelBroadcast>(decode_frame(*frame));
    EXPECT_EQ(m.round, 1u);
    EXPECT_EQ(m.purpose, ModelPurpose::kTraining);
    EXPECT_EQ(m.params, ParamVec(kParams, 0.5f));
  }
  EXPECT_FALSE(rig.clients[1]->try_recv().has_value());
}

TEST(RoundServer, CollectsUpdatesInExpectedOrder) {
  Rig rig(3);
  // Arrival order 2, 0, 1 — collection reports expected order 0, 1, 2.
  rig.send(2, rig.update_from(2, 1, 3.0f));
  rig.send(0, rig.update_from(0, 1, 1.0f));
  rig.send(1, rig.update_from(1, 1, 2.0f));
  const auto got = rig.server.collect(1, MsgType::kClientUpdate, {0, 1, 2});
  EXPECT_TRUE(got.dropped.empty());
  ASSERT_EQ(got.responders, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(std::get<ClientUpdate>(got.messages[0]).update,
            ParamVec(kParams, 1.0f));
  EXPECT_EQ(std::get<ClientUpdate>(got.messages[2]).update,
            ParamVec(kParams, 3.0f));
  EXPECT_EQ(rig.server.protocol_stats().total_rejected(), 0u);
}

TEST(RoundServer, StragglerIsDroppedAtDeadline) {
  Rig rig(2);
  rig.send(0, rig.update_from(0, 1));
  // Client 1 never answers.
  const auto got = rig.server.collect(1, MsgType::kClientUpdate, {0, 1});
  EXPECT_EQ(got.responders, (std::vector<std::size_t>{0}));
  EXPECT_EQ(got.dropped, (std::vector<std::size_t>{1}));
  EXPECT_EQ(rig.server.protocol_stats().timeouts, 1u);
}

TEST(RoundServer, AdmissionRejectsByReason) {
  Rig rig(2);
  rig.send(0, rig.update_from(0, /*round=*/9));  // wrong round
  {
    ClientUpdate u = rig.update_from(1, 1);
    u.client_id = 0;  // claims another session's identity
    rig.send(1, u);
  }
  {
    ClientUpdate u = rig.update_from(0, 1);
    u.update = ParamVec(kParams + 2, 0.0f);  // wrong length
    rig.send(0, u);
  }
  rig.send(1, rig.vote_from(1, 1, 0));        // vote during update phase
  rig.clients[0]->send(WireBytes{0xDE, 0xAD});  // garbage frame
  {
    ClientUpdate u = rig.update_from(1, 1);
    u.update[kParams / 2] = std::numeric_limits<float>::quiet_NaN();
    u.update[kParams - 1] = -std::numeric_limits<float>::infinity();
    rig.send(1, u);  // non-finite values: no fixed-point encoding
  }
  const auto got = rig.server.collect(1, MsgType::kClientUpdate, {0, 1});
  EXPECT_TRUE(got.responders.empty());
  const auto& stats = rig.server.protocol_stats();
  EXPECT_EQ(stats.wrong_round, 1u);
  EXPECT_EQ(stats.wrong_client, 1u);
  EXPECT_EQ(stats.bad_update_size, 1u);
  EXPECT_EQ(stats.bad_update_value, 1u);
  EXPECT_EQ(stats.unexpected_type, 1u);
  EXPECT_EQ(stats.decode_errors, 1u);
  EXPECT_EQ(stats.total_rejected(), 6u);
  EXPECT_EQ(stats.timeouts, 2u);  // neither produced an admissible update
}

TEST(RoundServer, OneSweepDrainsPastRejectedFrames) {
  // With a zero deadline the collection makes a single sweep; a rejected
  // frame must not stop it short of the admissible one queued behind it.
  InProcTransport transport;
  RoundServer server(RoundServerConfig{0ms, 0ms}, kParams);
  auto pair = transport.connect();
  server.add_session(0, pair.server);
  pair.client->send(WireBytes{0xDE, 0xAD});  // garbage
  ClientUpdate update;
  update.round = 1;
  update.update = ParamVec(kParams, 2.0f);
  pair.client->send(encode_frame(update));
  pair.client->send(encode_frame(update));  // a replay behind it
  const auto got = server.collect(1, MsgType::kClientUpdate, {0});
  EXPECT_EQ(got.responders, (std::vector<std::size_t>{0}));
  const auto stats = server.protocol_stats();
  EXPECT_EQ(stats.decode_errors, 1u);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_FALSE(pair.server->try_recv().has_value());  // nothing left over
}

TEST(RoundServer, DuplicateUpdateInSameBurstRejected) {
  Rig rig(1);
  rig.send(0, rig.update_from(0, 1, 1.0f));
  rig.send(0, rig.update_from(0, 1, 9.0f));
  const auto got = rig.server.collect(1, MsgType::kClientUpdate, {0});
  ASSERT_EQ(got.messages.size(), 1u);
  EXPECT_EQ(std::get<ClientUpdate>(got.messages[0]).update,
            ParamVec(kParams, 1.0f));  // first one wins
  EXPECT_EQ(rig.server.protocol_stats().duplicates, 1u);
}

TEST(RoundServer, CollectsVotesAndRejectsDuplicates) {
  Rig rig(2);
  rig.send(0, rig.vote_from(0, 2, 1));
  rig.send(0, rig.vote_from(0, 2, 0));  // replay: dropped
  rig.send(1, rig.vote_from(1, 2, 0));
  const auto got = rig.server.collect(2, MsgType::kVote, {0, 1});
  ASSERT_EQ(got.responders, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(std::get<Vote>(got.messages[0]).vote, 1);
  EXPECT_EQ(std::get<Vote>(got.messages[1]).vote, 0);
  EXPECT_EQ(rig.server.protocol_stats().duplicates, 1u);
}

TEST(RoundServer, FirstValidationShipsFullWindowThenOnlyDeltas) {
  Rig rig(1);
  const ParamVec candidate(kParams, 9.0f);

  EXPECT_EQ(rig.server.synced_version(0), RoundServer::kNeverSynced);
  send_validation(rig.server, 3, 4, candidate, window_of({1, 2, 3}), {0});
  {
    const auto delta =
        std::get<HistoryDelta>(decode_frame(*rig.clients[0]->try_recv()));
    ASSERT_EQ(delta.entries.size(), 3u);  // never synced → full window
    EXPECT_EQ(delta.entries[0].version, 1u);
    const auto m =
        std::get<ModelBroadcast>(decode_frame(*rig.clients[0]->try_recv()));
    EXPECT_EQ(m.purpose, ModelPurpose::kCandidate);
    EXPECT_EQ(m.version, 4u);
  }
  EXPECT_EQ(rig.server.synced_version(0), 3u);

  // Window advanced by one commit; only the new entry ships.
  send_validation(rig.server, 4, 5, candidate, window_of({2, 3, 4}), {0});
  {
    const auto delta =
        std::get<HistoryDelta>(decode_frame(*rig.clients[0]->try_recv()));
    ASSERT_EQ(delta.entries.size(), 1u);
    EXPECT_EQ(delta.entries[0].version, 4u);
  }
  EXPECT_EQ(rig.server.synced_version(0), 4u);
}

TEST(RoundServer, SharedFramesAreByteIdenticalAcrossRecipients) {
  // The training broadcast and the candidate depend on no recipient:
  // each is encoded once, and every recipient gets the same bytes.
  Rig rig(3);
  const ParamVec global{0.5f, -0.0f, 2.0f};
  rig.server.broadcast_training(2, 1, global, {0, 1, 2});
  const WireBytes training = *rig.clients[0]->try_recv();
  const ModelBroadcast want_training{2, 1, ModelPurpose::kTraining, global};
  EXPECT_EQ(training, encode_frame(want_training));
  for (std::size_t id : {1u, 2u}) {
    EXPECT_EQ(*rig.clients[id]->try_recv(), training);
  }

  // Validators at different sync levels get different deltas, and the
  // same candidate bytes.
  send_validation(rig.server, 2, 2, global, window_of({1}), {1});
  rig.clients[1]->try_recv();  // delta
  rig.clients[1]->try_recv();  // candidate
  const ParamVec candidate{9.0f, 8.0f, 7.0f};
  send_validation(rig.server, 3, 3, candidate, window_of({1, 2}), {0, 1, 2});
  std::vector<WireBytes> deltas;
  std::vector<WireBytes> candidates;
  for (std::size_t id = 0; id < 3; ++id) {
    deltas.push_back(*rig.clients[id]->try_recv());
    candidates.push_back(*rig.clients[id]->try_recv());
  }
  EXPECT_NE(deltas[0], deltas[1]);  // full window vs. one entry
  EXPECT_EQ(deltas[0], deltas[2]);
  const ModelBroadcast want{3, 3, ModelPurpose::kCandidate, candidate};
  EXPECT_EQ(candidates[0], encode_frame(want));
  EXPECT_EQ(candidates[1], candidates[0]);
  EXPECT_EQ(candidates[2], candidates[0]);
}

TEST(RoundServer, CommitAdvancesValidatorSyncAndRejectDoesNot) {
  Rig rig(2);
  send_validation(rig.server, 3, 4, ParamVec(kParams, 9.0f),
                  window_of({1, 2, 3}), {0, 1});
  RoundResult commit;
  commit.round = 3;
  commit.committed = 1;
  commit.version = 4;
  rig.server.finish_round(commit, {0, 1}, {0});
  // Client 0 promoted the candidate it already holds; client 1 was not a
  // validator this time (it stays at the shipped window head).
  EXPECT_EQ(rig.server.synced_version(0), 4u);
  EXPECT_EQ(rig.server.synced_version(1), 3u);

  RoundResult reject;
  reject.round = 4;
  reject.committed = 0;
  reject.version = 4;
  rig.server.finish_round(reject, {0, 1}, {0, 1});
  EXPECT_EQ(rig.server.synced_version(0), 4u);  // unchanged
  EXPECT_EQ(rig.server.synced_version(1), 3u);

  // Every participant got both results.
  for (std::size_t id : {0u, 1u}) {
    rig.clients[id]->try_recv();  // delta
    rig.clients[id]->try_recv();  // candidate broadcast
    const auto first =
        std::get<RoundResult>(decode_frame(*rig.clients[id]->try_recv()));
    EXPECT_EQ(first.committed, 1);
    const auto second =
        std::get<RoundResult>(decode_frame(*rig.clients[id]->try_recv()));
    EXPECT_EQ(second.committed, 0);
  }
}

TEST(RoundServer, TrackerTotalsMatchChannelByteCountsExactly) {
  Rig rig(2);
  CommTracker tracker(2, kParams * sizeof(float), 4);
  rig.server.set_tracker(&tracker);
  tracker.add_round();

  rig.server.broadcast_training(1, 0, ParamVec(kParams, 0.5f), {0, 1});
  rig.send(0, rig.update_from(0, 1));
  rig.send(1, rig.update_from(1, 1));
  rig.clients[1]->send(WireBytes{1, 2, 3});  // even junk bytes count
  (void)rig.server.collect(1, MsgType::kClientUpdate, {0, 1});
  send_validation(rig.server, 1, 1, ParamVec(kParams, 1.0f), window_of({0}),
                  {0, 1});
  rig.send(0, rig.vote_from(0, 1, 0));
  rig.send(1, rig.vote_from(1, 1, 1));
  (void)rig.server.collect(1, MsgType::kVote, {0, 1});
  RoundResult result;
  result.round = 1;
  result.committed = 1;
  result.version = 1;
  rig.server.finish_round(result, {0, 1}, {0, 1});

  const auto& s = tracker.stats();
  EXPECT_GT(s.model_download_bytes, 0u);
  EXPECT_GT(s.update_upload_bytes, 0u);
  EXPECT_GT(s.history_bytes, 0u);
  EXPECT_GT(s.control_bytes, 0u);
  EXPECT_EQ(s.total_bytes(), rig.server.wire_bytes());
}

TEST(RoundServer, ConcurrentAccountingReadsDuringCollection) {
  // Clients answer from their own threads while the server runs its
  // collection loop and a monitor thread polls the accounting surface —
  // the access pattern that used to assume a single driving thread.
  // Correctness here is ordering-free (the lock serializes the counter
  // snapshots); the TSan leg (test_net at BAFFLE_THREADS=4) turns any
  // unguarded access back into a hard failure.
  Rig rig(3);
  std::atomic<bool> done{false};
  std::thread monitor([&] {
    while (!done.load()) {
      (void)rig.server.protocol_stats().total_rejected();
      (void)rig.server.wire_bytes();
      (void)rig.server.has_session(0);
      (void)rig.server.synced_version(1);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> senders;
  for (std::size_t id = 0; id < 3; ++id) {
    senders.emplace_back(
        [&rig, id] { rig.send(id, rig.update_from(id, 1, 1.0f)); });
  }
  const auto got = rig.server.collect(1, MsgType::kClientUpdate, {0, 1, 2});
  done.store(true);
  monitor.join();
  for (auto& t : senders) t.join();
  EXPECT_EQ(got.responders.size() + got.dropped.size(), 3u);
  const auto stats = rig.server.protocol_stats();
  EXPECT_EQ(stats.total_rejected(), 0u);
  EXPECT_EQ(stats.timeouts, got.dropped.size());
}

TEST(RoundServer, CollectsOnlyClientMessageTypes) {
  // Clients send updates and votes; any other phase type is a caller
  // bug, not a deadline to wait out.
  Rig rig(1);
  EXPECT_THROW(rig.server.collect(1, MsgType::kRoundResult, {0}),
               std::invalid_argument);
  EXPECT_THROW(rig.server.collect(1, MsgType::kModelBroadcast, {0}),
               std::invalid_argument);
}

TEST(RoundServer, RejectsDegenerateConstruction) {
  EXPECT_THROW(RoundServer(fast_config(), 0), std::invalid_argument);
  Rig rig(1);
  EXPECT_THROW(rig.server.add_session(5, nullptr), std::invalid_argument);
  EXPECT_THROW(rig.server.synced_version(42), std::out_of_range);
  EXPECT_FALSE(rig.server.has_session(42));
  EXPECT_TRUE(rig.server.has_session(0));
}

}  // namespace
}  // namespace baffle
