// ClientActor on its own: a hand-driven server end of the channel sends
// the phase frames and reads the replies. The actor's window is a
// ModelHistory, and every version the wire supplies must advance it.

#include "net/client_actor.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <utility>

namespace baffle {
namespace {

const MlpConfig kArch{{4, 3, 2}, Activation::kRelu};

/// Never asked for an update: these tests drive only validation.
class NoUpdates final : public UpdateProvider {
 public:
  ParamVec update_for(std::size_t, const Mlp&, Rng&) override {
    throw std::logic_error("no training in this test");
  }
};

/// An actor with an empty shard (it abstains from judging) and the
/// server end of its channel.
struct Rig {
  NoUpdates provider;
  std::shared_ptr<Channel> server;
  std::unique_ptr<ClientActor> actor;

  explicit Rig(VoteStrategy strategy = VoteStrategy::kHonest) {
    InProcTransport transport;
    DuplexChannel duplex = transport.connect();
    server = duplex.server;
    ClientActorConfig config;
    config.client_id = 3;
    config.lookback = 2;
    config.strategy = strategy;
    ValidatorConfig validator;
    validator.lookback = 2;
    actor = std::make_unique<ClientActor>(config, kArch, Dataset(4, 2),
                                          validator, &provider,
                                          std::move(duplex.client));
  }

  ParamVec params(float fill) const {
    return ParamVec(Mlp(kArch).num_params(), fill);
  }

  /// Ships a delta with `versions` plus a candidate, runs the actor's
  /// validation phase and returns its vote.
  Vote validate(std::uint64_t round,
                std::initializer_list<std::uint64_t> versions) {
    HistoryDelta delta;
    delta.round = round;
    for (std::uint64_t v : versions) {
      delta.entries.push_back({v, params(static_cast<float>(v))});
    }
    server->send(encode_frame(delta));
    ModelBroadcast candidate;
    candidate.round = round;
    candidate.purpose = ModelPurpose::kCandidate;
    candidate.params = params(-1.0f);
    server->send(encode_frame(candidate));
    actor->handle_validation();
    return std::get<Vote>(decode_frame(*server->try_recv()));
  }

  void finish(std::uint64_t round, bool committed, std::uint64_t version) {
    RoundResult result;
    result.round = round;
    result.committed = committed ? 1 : 0;
    result.version = version;
    server->send(encode_frame(result));
    actor->handle_round_result();
  }
};

TEST(ClientActor, KeepsTheLastWindowOfAcceptedModels) {
  Rig rig;
  rig.validate(1, {1, 2, 3, 4});
  EXPECT_EQ(rig.actor->history().size(), 3u);  // ℓ+1 = 3
  EXPECT_EQ(rig.actor->history().latest().version, 4u);
  rig.finish(1, /*committed=*/true, 5);
  EXPECT_EQ(rig.actor->history().latest().version, 5u);
  EXPECT_EQ(rig.actor->history().latest().params, rig.params(-1.0f));
  rig.validate(2, {});
  rig.finish(2, /*committed=*/false, 5);  // rolled back: nothing enters
  EXPECT_EQ(rig.actor->history().latest().version, 5u);
  EXPECT_EQ(rig.actor->history().size(), 3u);
}

TEST(ClientActor, DeltaThatDoesNotAdvanceTheWindowIsAWireError) {
  Rig rig;
  rig.validate(1, {4, 5});
  // Each delta is strictly increasing on its own (the decoder checks
  // that); across deltas only the actor can tell a regression.
  EXPECT_THROW(rig.validate(2, {5}), WireError);
  Rig other;
  other.validate(1, {4, 5});
  EXPECT_THROW(other.validate(2, {3, 6}), WireError);
}

TEST(ClientActor, CommitThatDoesNotAdvanceTheWindowIsAWireError) {
  Rig rig;
  rig.validate(1, {4, 5});
  EXPECT_THROW(rig.finish(1, /*committed=*/true, 5), WireError);
  Rig other;
  other.validate(1, {4, 5});
  EXPECT_THROW(other.finish(1, /*committed=*/true, 2), WireError);
}

TEST(ClientActor, CastsItsVoteThroughItsStrategy) {
  // No data: the honest verdict is an abstaining "clean". The strategy
  // changes the vote on the wire, never the abstention flag.
  const std::pair<VoteStrategy, int> cases[] = {
      {VoteStrategy::kHonest, 0},
      {VoteStrategy::kAlwaysAccept, 0},
      {VoteStrategy::kAlwaysReject, 1}};
  for (const auto& [strategy, wire_vote] : cases) {
    Rig rig(strategy);
    const Vote vote = rig.validate(1, {1});
    EXPECT_FALSE(rig.actor->has_validator());
    EXPECT_EQ(vote.client_id, 3u);
    EXPECT_EQ(vote.vote, wire_vote);
    EXPECT_EQ(vote.abstained, 1);
  }
}

}  // namespace
}  // namespace baffle
