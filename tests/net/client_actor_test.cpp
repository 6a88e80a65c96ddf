// ClientActor on its own: a hand-driven server end of the channel sends
// the phase frames and reads the replies. The actor's window is a
// ModelHistory, every version the wire supplies must advance it, and
// the models in it are interned through a SnapshotStore, which actors
// share only when their decoded bytes are bit-equal.

#include "net/client_actor.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "support/alloc_counter.hpp"

namespace baffle {
namespace {

const MlpConfig kArch{{4, 3, 2}};

/// Never asked for an update: these tests drive only validation.
class NoUpdates final : public UpdateProvider {
 public:
  ParamVec update_for(std::size_t, const Mlp&, Rng&) override {
    throw std::logic_error("no training in this test");
  }
};

/// An actor and the server end of its channel. By default the actor
/// has an empty shard (it abstains from judging), a window of ℓ+1 = 3
/// and a store of its own; pass `shared` to put actors on one store.
struct Rig {
  NoUpdates provider;
  SnapshotStore own_store;
  std::shared_ptr<Channel> server;
  std::unique_ptr<ClientActor> actor;
  std::size_t lookback;

  explicit Rig(VoteStrategy strategy = VoteStrategy::kHonest,
               SnapshotStore* shared = nullptr,
               const Dataset& shard = Dataset(4, 2),
               std::size_t ell = 2)
      : lookback(ell) {
    InProcTransport transport;
    DuplexChannel duplex = transport.connect();
    server = duplex.server;
    ClientActorConfig config;
    config.client_id = 3;
    config.lookback = lookback;
    config.strategy = strategy;
    ValidatorConfig validator;
    validator.lookback = lookback;
    actor = std::make_unique<ClientActor>(
        config, kArch, shard, validator, &provider, std::move(duplex.client),
        shared != nullptr ? *shared : own_store);
  }

  static ParamVec params(float fill) {
    return ParamVec(Mlp(kArch).num_params(), fill);
  }

  /// Ships a delta of `entries` plus `candidate`, runs the actor's
  /// validation phase and returns its vote. The candidate is announced
  /// as the version after the window head, the one a commit gives it.
  Vote validate(std::uint64_t round,
                std::vector<HistoryDelta::Entry> entries,
                ParamVec candidate) {
    std::uint64_t head = 0;
    if (!entries.empty()) {
      head = entries.back().version;
    } else if (!actor->history().empty()) {
      head = actor->history().latest().version;
    }
    HistoryDelta delta;
    delta.round = round;
    delta.entries = std::move(entries);
    server->send(encode_frame(delta));
    ModelBroadcast broadcast;
    broadcast.round = round;
    broadcast.version = head + 1;
    broadcast.purpose = ModelPurpose::kCandidate;
    broadcast.params = std::move(candidate);
    server->send(encode_frame(broadcast));
    actor->handle_validation();
    return std::get<Vote>(decode_frame(*server->try_recv()));
  }

  /// As above, with version v's params all v and a candidate of −1s.
  Vote validate(std::uint64_t round,
                std::initializer_list<std::uint64_t> versions) {
    std::vector<HistoryDelta::Entry> entries;
    for (std::uint64_t v : versions) {
      entries.push_back({v, params(static_cast<float>(v))});
    }
    return validate(round, std::move(entries), params(-1.0f));
  }

  void finish(std::uint64_t round, bool committed, std::uint64_t version) {
    RoundResult result;
    result.round = round;
    result.committed = committed ? 1 : 0;
    result.version = version;
    server->send(encode_frame(result));
    actor->handle_round_result();
  }

  ModelWindow window() const {
    return actor->history().window_shared(lookback + 1);
  }
};

// A judging actor: ℓ = 6 is the smallest window the default
// min_variations scores, on a 64-sample shard of a linear 2-class rule.
constexpr std::size_t kJudgingLookback = 6;

Dataset judging_shard() {
  Rng rng(5);
  Dataset shard(4, 2);
  for (int i = 0; i < 64; ++i) {
    std::vector<float> x(4);
    for (float& f : x) f = static_cast<float>(rng.normal(0.0, 1.0));
    shard.add(x, x[0] + x[1] > 0.0f ? 1 : 0);
  }
  return shard;
}

/// Distinct random models, so each window model predicts differently.
ParamVec random_model(std::uint64_t seed) {
  Rng rng(seed);
  ParamVec out(Mlp(kArch).num_params());
  for (float& p : out) p = static_cast<float>(rng.normal(0.0, 1.0));
  return out;
}

/// A full judging window: versions 1..ℓ+1 of random models.
std::vector<HistoryDelta::Entry> judging_window() {
  std::vector<HistoryDelta::Entry> entries;
  for (std::uint64_t v = 1; v <= kJudgingLookback + 1; ++v) {
    entries.push_back({v, random_model(v)});
  }
  return entries;
}

void expect_same_vote(const Vote& got, const Vote& want) {
  EXPECT_EQ(got.vote, want.vote);
  EXPECT_EQ(got.abstained, want.abstained);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.phi),
            std::bit_cast<std::uint64_t>(want.phi));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.tau),
            std::bit_cast<std::uint64_t>(want.tau));
}

TEST(SnapshotStore, InternsFrameBytesAndCopiesOnlyOnAMiss) {
  const ParamVec params = random_model(7);
  const ModelBroadcast broadcast{1, 4, ModelPurpose::kCandidate, params};
  const WireBytes frame = encode_frame(broadcast);
  const auto view = std::get<ModelBroadcastView>(decode_frame_view(frame));
  SnapshotStore store;
  const auto first = store.intern(4, view.params);
  EXPECT_EQ(first->version, 4u);
  EXPECT_TRUE(same_bytes(first->params, params));

  // Bytes it holds for that version: the held snapshot, no copy.
  const std::size_t before = heap_allocations();
  const auto again = store.intern(4, view.params);
  EXPECT_EQ(heap_allocations() - before, 0u);
  EXPECT_EQ(again.get(), first.get());

  // The same bytes under another version are another model.
  const auto other = store.intern(5, view.params);
  EXPECT_NE(other.get(), first.get());
  EXPECT_EQ(store.live(), 2u);
}

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

TEST(ClientActor, CommitOfAnotherVersionThanTheCandidatesIsAWireError) {
  // The candidate was announced as version 3; a commit that names 4
  // advances the window but contradicts the announcement.
  Rig rig;
  rig.validate(1, {1, 2});
  EXPECT_THROW(rig.finish(1, /*committed=*/true, 4), WireError);
  EXPECT_EQ(rig.actor->history().latest().version, 2u);
}

TEST(ClientActor, ModelOfTheWrongLengthIsAWireError) {
  // Every model payload must hold the architecture's parameter count:
  // a short or long training broadcast, history-delta entry or
  // candidate is a protocol error before the actor trains on it or
  // interns it.
  const std::size_t params = Mlp(kArch).num_params();
  for (const std::size_t len : {params - 1, params + 1, std::size_t{0}}) {
    SCOPED_TRACE(::testing::Message() << "length " << len);
    {
      Rig rig;
      rig.server->send(encode_frame(ModelBroadcast{
          1, 1, ModelPurpose::kTraining, ParamVec(len, 0.5f)}));
      EXPECT_THROW(rig.actor->handle_training(Rng(1)), WireError);
    }
    {
      Rig rig;
      std::vector<HistoryDelta::Entry> entries = {{1, rig.params(1.0f)},
                                                  {2, ParamVec(len, 2.0f)}};
      EXPECT_THROW(rig.validate(1, std::move(entries), rig.params(-1.0f)),
                   WireError);
      EXPECT_EQ(rig.actor->history().size(), 1u);
      EXPECT_EQ(rig.own_store.live(), 1u);
    }
    {
      Rig rig;
      std::vector<HistoryDelta::Entry> entries = {{1, rig.params(1.0f)}};
      EXPECT_THROW(rig.validate(1, std::move(entries), ParamVec(len, -1.0f)),
                   WireError);
      EXPECT_EQ(rig.own_store.live(), 1u);  // the window's model only
    }
  }
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

TEST(ClientActor, BitEqualModelsShareOneSnapshot) {
  const Dataset shard = judging_shard();
  SnapshotStore store;
  Rig a(VoteStrategy::kHonest, &store, shard, kJudgingLookback);
  Rig b(VoteStrategy::kHonest, &store, shard, kJudgingLookback);
  Rig alone(VoteStrategy::kHonest, nullptr, shard, kJudgingLookback);
  const ParamVec candidate = random_model(100);
  const Vote va = a.validate(1, judging_window(), candidate);
  const Vote vb = b.validate(1, judging_window(), candidate);
  const Vote want = alone.validate(1, judging_window(), candidate);

  // Each actor decoded its own frames; the store handed the second one
  // the first one's snapshots, and the lone actor kept its own.
  {
    const ModelWindow wa = a.window();
    const ModelWindow wb = b.window();
    const ModelWindow wo = alone.window();
    ASSERT_EQ(wa.size(), kJudgingLookback + 1);
    ASSERT_EQ(wb.size(), wa.size());
    for (std::size_t i = 0; i < wa.size(); ++i) {
      EXPECT_EQ(wa[i].get(), wb[i].get()) << "version " << wa[i]->version;
      EXPECT_NE(wa[i].get(), wo[i].get());
    }
    // The window's models, and the candidate both judged, pending.
    EXPECT_EQ(store.live(), kJudgingLookback + 2);
  }

  // Sharing changes no vote: both judge exactly as the lone actor.
  ASSERT_TRUE(a.actor->has_validator());
  EXPECT_EQ(want.abstained, 0);
  expect_same_vote(va, want);
  expect_same_vote(vb, want);

  // The committed candidate is interned too; the model it pushes out
  // of both windows dies with them.
  a.finish(1, /*committed=*/true, kJudgingLookback + 2);
  b.finish(1, /*committed=*/true, kJudgingLookback + 2);
  EXPECT_EQ(&a.actor->history().latest(), &b.actor->history().latest());
  EXPECT_EQ(a.actor->history().latest().params, candidate);
  EXPECT_EQ(store.live(), kJudgingLookback + 1);
}

TEST(ClientActor, DifferingBytesKeepTheirOwnSnapshot) {
  const Dataset shard = judging_shard();
  SnapshotStore store;
  Rig a(VoteStrategy::kHonest, &store, shard, kJudgingLookback);
  Rig b(VoteStrategy::kHonest, &store, shard, kJudgingLookback);
  Rig c(VoteStrategy::kHonest, &store, shard, kJudgingLookback);
  Rig d(VoteStrategy::kHonest, &store, shard, kJudgingLookback);
  const ParamVec candidate = random_model(100);

  // b's entry for version 4 differs from a's only in the sign of a
  // zero: equal under float ==, not bit-equal. d's entry for version 6
  // differs only in a NaN's payload: unequal under ==, even to itself.
  const float nan_a = std::bit_cast<float>(std::uint32_t{0x7fc00001});
  const float nan_d = std::bit_cast<float>(std::uint32_t{0x7fc00002});
  std::vector<HistoryDelta::Entry> original = judging_window();
  original[3].params[0] = 0.0f;
  original[5].params[1] = nan_a;
  std::vector<HistoryDelta::Entry> signed_zero = original;
  signed_zero[3].params[0] = -0.0f;
  std::vector<HistoryDelta::Entry> nan_payload = original;
  nan_payload[5].params[1] = nan_d;
  const ParamVec want_bytes = original[3].params;
  a.validate(1, original, candidate);
  b.validate(1, signed_zero, candidate);
  c.validate(1, original, candidate);
  d.validate(1, nan_payload, candidate);

  const ModelWindow wa = a.window();
  const ModelWindow wb = b.window();
  const ModelWindow wc = c.window();
  const ModelWindow wd = d.window();
  for (std::size_t i = 0; i < wa.size(); ++i) {
    SCOPED_TRACE(wa[i]->version);
    EXPECT_EQ(wa[i].get(), wc[i].get());  // c matched a's bytes, NaN too
    EXPECT_EQ(wa[i].get() == wb[i].get(), i != 3);
    EXPECT_EQ(wa[i].get() == wd[i].get(), i != 5);
  }
  // Each window reads the bytes its own actor was sent.
  EXPECT_TRUE(same_bytes(wa[3]->params, want_bytes));
  EXPECT_FALSE(std::signbit(wa[3]->params[0]));
  EXPECT_TRUE(std::signbit(wb[3]->params[0]));
  EXPECT_EQ(std::bit_cast<std::uint32_t>(wa[5]->params[1]), 0x7fc00001u);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(wd[5]->params[1]), 0x7fc00002u);
  // a's window, b's and d's own entries, and the one pending candidate.
  EXPECT_EQ(store.live(), kJudgingLookback + 1 + 2 + 1);
}

}  // namespace
}  // namespace baffle
