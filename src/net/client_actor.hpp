#pragma once
// Simulated FL client behind a Channel: the peer the round server talks
// to. One actor persists across rounds and owns what a real client
// keeps between them: its Validator (the labels of its shard, the
// shard's packed sample panels, and the cross-round prediction/LOF
// caches of DESIGN.md §12) and its ModelHistory of accepted models,
// kept in sync through HistoryDelta messages (§VI-D: a
// recently-selected validator receives only the models it is missing).
//
// What an actor shares: every model it validates or accepts — each
// history-delta entry and the round's candidate — it interns straight
// from its own frame's bytes through its driver's SnapshotStore, so
// actors whose frames carry bit-equal bytes hold one immutable
// GlobalModel between them instead of a copy each, and only the first
// of them copies the bytes out of its frame. Bytes that differ (a
// tampered frame, an equivocating server) get a snapshot of their own,
// so no window ever holds bytes its actor was not sent. Training keeps
// no model of its own: each call copies the broadcast's bytes once,
// into an Mlp leased per thread (LeasedMlp), and the provider trains a
// leased local model too, so a warm training call constructs no model.
//
// The actor's verdicts are bit-identical to the in-process
// BaffleDefense path: VALIDATE depends only on (candidate, window,
// shard, config), all of which this side reconstructs exactly, and it
// runs the same Validator over the same kind of window. That
// equivalence is what lets run_experiment swap the transport in without
// perturbing a single RoundRecord (tests/exp/transport_parity_test).
//
// Handlers are blocking: each receives the message(s) of its phase from
// the channel (the server sends before the actor runs, so in-process
// runs never actually wait) and replies. A malicious actor lies on the
// wire — it casts its vote through its VoteStrategy (cast_vote, the
// same function the in-process path applies), which is where vote
// manipulation happens in a deployment; the server never rewrites
// votes. Every version the wire supplies must advance the local window,
// a commit must name the version its candidate was announced with, and
// every model payload must hold the architecture's parameter count, or
// the handler throws WireError.

#include <optional>
#include <unordered_map>

#include "attack/malicious_voter.hpp"
#include "core/validate.hpp"
#include "net/transport.hpp"
#include "util/sync.hpp"

namespace baffle {

/// The models the client actors of one driver share, interned from
/// their frames' bytes. intern() hands back the snapshot an actor
/// already holds for (version, bytes) when one exists, and only
/// otherwise copies the payload out of the caller's frame into a new
/// one. Bytes are compared with memcmp, not float ==: a NaN matches
/// its own bits, and -0 never matches +0. The store holds only weak
/// references, so a snapshot dies with the last window (or pending
/// candidate) that holds it.
class SnapshotStore {
 public:
  /// Thread-safe: actors intern concurrently inside a phase's fork-join.
  std::shared_ptr<const GlobalModel> intern(std::uint64_t version,
                                            const F32View& params);

  /// Snapshots some holder still keeps alive (tests).
  std::size_t live() const;

 private:
  mutable Mutex mu_;
  /// Per version, every distinct byte pattern an actor accepted.
  std::unordered_map<std::uint64_t,
                     std::vector<std::weak_ptr<const GlobalModel>>>
      by_version_ BAFFLE_GUARDED_BY(mu_);
};

struct ClientActorConfig {
  std::size_t client_id = 0;
  /// Window retention ℓ+1 is lookback + 1 (as in BaffleDefense).
  std::size_t lookback = 20;
  /// How this client votes: kHonest reports its verdict; an
  /// adversary-controlled client casts through its strategy instead.
  VoteStrategy strategy = VoteStrategy::kHonest;
};

class ClientActor {
 public:
  /// How long a handler waits for its expected message before giving up
  /// (a deployment's defense against a silent server).
  static constexpr std::chrono::milliseconds kRecvTimeout{30'000};

  /// `shard` may be empty — the actor then abstains from every vote
  /// (matching BaffleDefense::client_validator returning nullptr); the
  /// actor keeps only what its Validator extracts from it. `provider`
  /// and `snapshots` outlive the actor and are shared with other
  /// actors; both are thread-safe (provider per the UpdateProvider
  /// contract).
  ClientActor(ClientActorConfig config, MlpConfig arch, const Dataset& shard,
              ValidatorConfig validator_config, UpdateProvider* provider,
              std::shared_ptr<Channel> channel, SnapshotStore& snapshots);

  /// Training phase: receives ModelBroadcast(kTraining), trains through
  /// the update provider with the caller-forked `rng`, sends
  /// ClientUpdate. Safe to run concurrently across distinct actors.
  void handle_training(Rng rng);

  /// Validation phase: receives HistoryDelta then
  /// ModelBroadcast(kCandidate), appends the delta to the local
  /// history, runs VALIDATE (or abstains without data/history), casts
  /// its vote through its strategy, sends Vote, and retains the
  /// candidate's shared snapshot pending the round result.
  void handle_validation();

  /// Round epilogue: receives RoundResult. On commit the retained
  /// candidate is promoted into the local history (and its profile in
  /// the validator); the commit must name the version the candidate
  /// was announced with, or the handler throws WireError. On reject it
  /// is dropped.
  void handle_round_result();

  std::size_t id() const { return config_.client_id; }
  bool has_validator() const { return validator_.has_value(); }
  /// Local accepted-model history, the last ℓ+1 models (tests).
  const ModelHistory& history() const { return history_; }

 private:
  /// Receives one frame into `frame` and decodes it in place, insisting
  /// on `expected` type; the view's payloads alias `frame`.
  WireView recv_expect(MsgType expected, WireBytes& frame);
  /// ModelHistory::push only debug-checks that versions grow, so a
  /// wire-supplied version that does not advance the window is
  /// rejected here as a protocol violation.
  void check_advances(std::uint64_t version) const;
  /// A model payload of another length than the architecture's
  /// parameter count is a protocol violation.
  void check_length(const F32View& params) const;
  /// Appends a history-delta entry, interned from its frame's bytes.
  void accept(std::uint64_t version, const F32View& params);

  ClientActorConfig config_;
  MlpConfig arch_;  // decoded training broadcasts materialize as this
  std::size_t num_params_;  // every model payload's length
  UpdateProvider* provider_;
  std::shared_ptr<Channel> channel_;
  SnapshotStore& snapshots_;
  std::optional<Validator> validator_;  // nullopt: empty shard
  ModelHistory history_;                // capacity lookback + 1

  /// Candidate judged this round, awaiting the server's verdict. Its
  /// snapshot carries the version it was announced with: the one it
  /// receives on a commit.
  struct PendingCandidate {
    std::uint64_t round = 0;
    std::shared_ptr<const GlobalModel> model;
  };
  std::optional<PendingCandidate> pending_;
};

}  // namespace baffle
