#pragma once
// TransportRoundDriver: the experiment loop's bridge onto the wire
// protocol. It owns one ClientActor (+ connected channel pair) per
// client that ever participates, plus the SnapshotStore through which
// those actors share the accepted models they decode (one snapshot per
// distinct (version, bytes), not one per actor), and replays each
// round's three exchanges through the RoundServer:
//
//   propose_round  — broadcast the global model to the contributors,
//                    run their training as one pool fork-join
//                    (parallel_for), collect and admission-check their
//                    ClientUpdates, aggregate the responders through
//                    FlServer::aggregate_updates.
//   evaluate       — encode the candidate once, then run the validating
//                    actors and the server's own validator (whose vote
//                    never crosses a wire) as one fork-join, each
//                    validator's task first shipping it its history
//                    delta plus the candidate; collect the Votes, and
//                    hand them to core's tally (decide_quorum), which
//                    checks them and applies Algorithm 1's quorum.
//   finish_round   — deliver the RoundResult to every participant so
//                    actors promote or drop the judged candidate.
//
// Every round rule — vote strategies, abstention, the quorum, the
// accepted-model window — is core's (attack/malicious_voter,
// core/feedback_loop, core/history); this layer only moves their inputs
// and outputs through frames.
//
// Determinism contract: with no stragglers, a transport-driven round is
// bit-identical to the in-process FlServer/BaffleDefense path. The
// driver forks the per-contributor Rngs from the round rng in exactly
// the order propose_round_with does, aggregation runs through the same
// FlServer code, and VALIDATE depends only on (candidate, window,
// shard, config) — all reconstructed exactly on the actor side.
// tests/exp/transport_parity_test locks this in.
//
// With stragglers (a collection deadline expires), the round proceeds
// over the responders: aggregation over the updates that arrived, and —
// per the paper's footnote 1 — a short voter set is tallied as-is, so
// missing votes mean accept-by-default.

#include <memory>
#include <unordered_set>

#include "core/defense.hpp"
#include "net/client_actor.hpp"
#include "net/round_server.hpp"

namespace baffle {

class TransportRoundDriver {
 public:
  /// All references must outlive the driver. `provider` is shared by
  /// every actor (its update_for is thread-safe per the UpdateProvider
  /// contract); ids in `malicious_ids` get actors that cast their votes
  /// through `strategy`.
  TransportRoundDriver(InProcTransport& transport, FlServer& server,
                       BaffleDefense& defense,
                       const std::vector<FlClient>& clients,
                       UpdateProvider& provider,
                       const std::unordered_set<std::size_t>& malicious_ids,
                       VoteStrategy strategy);

  /// Training phase over the wire; the drop-in replacement for
  /// FlServer::propose_round_with. `round_rng` advances exactly as in
  /// the in-process path (one fork per contributor, in order).
  FlServer::Proposal propose_round(
      const std::vector<std::size_t>& contributors, Rng& round_rng);

  /// Validation phase over the wire; the drop-in replacement for
  /// BaffleDefense::evaluate for the same candidate and validator set.
  FeedbackDecision evaluate(const FlServer::Proposal& proposal,
                            const std::vector<std::size_t>& validating_ids);

  /// Closes the round towards every participant. `version` is the
  /// committed version on a commit, the unchanged pre-round version on
  /// a reject. Must be called once per round, after commit/discard.
  void finish_round(const FlServer::Proposal& proposal, bool committed,
                    std::uint64_t version, const FeedbackDecision& decision);

  /// Exact per-category byte totals, measured from encoded frames.
  const CommTracker& tracker() const { return tracker_; }
  RoundServer& round_server() { return round_server_; }
  const RoundServer& round_server() const { return round_server_; }
  /// Ground truth the tracker must equal: channel-counted frame bytes.
  std::uint64_t wire_bytes() const { return round_server_.wire_bytes(); }

  /// Inspection handles (tests): the actors' shared snapshots, and
  /// client `id`'s actor, nullptr until that client first participates.
  const SnapshotStore& snapshots() const { return snapshots_; }
  const ClientActor* actor(std::size_t id) const;

 private:
  ClientActor& actor_for(std::size_t id);
  /// The actors of `ids`, in order, creating any that are missing (map
  /// mutation stays on the calling thread, before any fork-join).
  std::vector<ClientActor*> actors_for(const std::vector<std::size_t>& ids);

  InProcTransport& transport_;
  FlServer& server_;
  BaffleDefense& defense_;
  const std::vector<FlClient>& clients_;
  UpdateProvider& provider_;
  std::unordered_set<std::size_t> malicious_ids_;
  VoteStrategy strategy_;
  CommTracker tracker_;
  RoundServer round_server_;
  SnapshotStore snapshots_;  // declared before the actors that use it
  std::unordered_map<std::size_t, std::unique_ptr<ClientActor>> actors_;
  /// Current round's participants (reset by propose_round, consumed by
  /// finish_round).
  std::vector<std::size_t> round_contributors_;
  std::vector<std::size_t> round_validators_;
};

}  // namespace baffle
