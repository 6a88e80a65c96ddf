#pragma once
// Session-oriented round server: the server half of the wire protocol.
//
// One session per connected client, persistent across rounds —
// it remembers the newest accepted-model version the client holds
// (synced_version), which is what turns §VI-D's history shipping into
// deltas. The phase methods drive one FL round over those sessions:
//
//   broadcast_training      →  ModelBroadcast(kTraining) to contributors
//   collect(kClientUpdate)  ←  ClientUpdate from each, admission-checked
//   send_validation         →  HistoryDelta + ModelBroadcast(kCandidate),
//                              one validator per call
//   collect(kVote)          ←  Vote from each validator, admission-checked
//   finish_round            →  RoundResult to every round participant
//
// A frame whose fields do not depend on the recipient (the training
// broadcast, the round's candidate, the result) is encoded once and
// its bytes go to every recipient. A history delta depends on the
// validator's synced_version, so send_validation encodes it straight
// from the window's shared snapshots, outside the lock, one validator
// at a time: TransportRoundDriver calls it from each validator's task
// just before that actor reads, so at most pool-size deltas are in
// flight.
//
// One collection loop serves both inbound phases and enforces per-round
// admission on every frame (decodes, type, round number, session
// identity, duplicates, update size, finite update values); a frame that
// fails any check is dropped and counted in ProtocolStats, never
// trusted. Stragglers are handled by deadline: a client that has not
// answered when the phase's timeout expires is reported in `dropped`
// and the round proceeds without it — aggregation over the responders,
// and per the paper's footnote 1 an undersized voter set simply tallies
// the votes that did arrive (accept by default). A sender whose only
// message was inadmissible is dropped the same way.
//
// The simulation runs a phase's client actors to completion (a pool
// fork-join in TransportRoundDriver, each validator's task sending its
// own frames first) before it collects, so collection finds every frame
// already queued; the wait only matters for clients that answer late
// from threads of their own.
//
// Byte accounting is exact: every frame sent or received is reported to
// the attached CommTracker at its actually-serialized size, attributed
// by phase (broadcasts → model download, updates → upload, history
// deltas → history, votes/results → control). Inadmissible frames
// still crossed the wire, so their bytes count toward the phase that
// received them.

#include <unordered_map>

#include "core/history.hpp"
#include "fl/comm.hpp"
#include "net/transport.hpp"
#include "util/sync.hpp"

namespace baffle {

struct RoundServerConfig {
  /// Straggler deadlines per collection phase (tests shorten them; the
  /// fuzzer sets zero for a single sweep).
  std::chrono::milliseconds update_timeout{30'000};
  std::chrono::milliseconds vote_timeout{30'000};
};

/// Inbound frames rejected at the protocol boundary, by reason; and the
/// peers that missed a collection deadline.
struct ProtocolStats {
  std::uint64_t decode_errors = 0;     // malformed frame / bad version
  std::uint64_t unexpected_type = 0;   // well-formed but out of phase
  std::uint64_t wrong_round = 0;
  std::uint64_t wrong_client = 0;      // id does not match the session
  std::uint64_t duplicates = 0;        // second update/vote this round
  std::uint64_t bad_update_size = 0;   // update length != model params
  std::uint64_t bad_update_value = 0;  // update holds a NaN or ±Inf
  std::uint64_t timeouts = 0;          // expected peers that never answered
  std::uint64_t total_rejected() const {
    return decode_errors + unexpected_type + wrong_round + wrong_client +
           duplicates + bad_update_size + bad_update_value;
  }
};

class RoundServer {
 public:
  /// `expected_params` — flat parameter count of the model; admission
  /// rejects updates of any other length.
  RoundServer(RoundServerConfig config, std::size_t expected_params);

  /// Registers (or replaces) the server-side channel for `client_id`.
  void add_session(std::size_t client_id, std::shared_ptr<Channel> channel);
  bool has_session(std::size_t client_id) const;

  /// Exact-byte communication accounting sink; may be null.
  void set_tracker(CommTracker* tracker) { tracker_ = tracker; }

  void broadcast_training(std::uint64_t round, std::uint64_t version,
                          const ParamVec& global,
                          const std::vector<std::size_t>& contributors);

  /// Ships `validator` a HistoryDelta of `round` holding the window
  /// entries it is missing (those newer than its session's
  /// synced_version), then `candidate` — the round's
  /// ModelBroadcast(kCandidate) frame, encoded once for every validator
  /// — and advances synced_version to the window head. Thread-safe: the
  /// delta is encoded outside the lock, so concurrent calls for
  /// distinct validators overlap.
  void send_validation(std::size_t validator, std::uint64_t round,
                       const ModelWindow& window, const WireBytes& candidate);

  struct Collection {
    /// Responders' admissible messages, in the order their ids appear
    /// in `expected`.
    std::vector<WireMessage> messages;
    std::vector<std::size_t> responders;
    std::vector<std::size_t> dropped;  // deadline missed
  };
  /// Collects one admissible `type` message (kClientUpdate or kVote) from
  /// each id in `expected`, until all have answered or the phase's
  /// deadline passes. Every frame it reads either lands in the result or
  /// is counted in ProtocolStats (a second admissible message from one
  /// sender counts as a duplicate).
  Collection collect(std::uint64_t round, MsgType type,
                     const std::vector<std::size_t>& expected);

  /// Sends the RoundResult to every id in `participants`; on a commit,
  /// marks each id in `validators` as holding the committed version
  /// (they promote the candidate they already received).
  void finish_round(const RoundResult& result,
                    const std::vector<std::size_t>& participants,
                    const std::vector<std::size_t>& validators);

  /// Snapshot of the admission counters (copied under the lock).
  ProtocolStats protocol_stats() const;

  /// Raw frame bytes that crossed all sessions, both directions, as the
  /// channels counted them — the ground truth CommTracker must match.
  std::uint64_t wire_bytes() const;

  /// Newest accepted version `client_id` holds; kNeverSynced before the
  /// first delta.
  static constexpr std::uint64_t kNeverSynced = ~std::uint64_t{0};
  std::uint64_t synced_version(std::size_t client_id) const;

 private:
  struct Session {
    std::shared_ptr<Channel> channel;
    std::uint64_t synced_version = kNeverSynced;
  };

  Session& session_for(std::size_t client_id) BAFFLE_REQUIRES(mu_);
  void send_frame(std::size_t client_id, WireBytes frame,
                  CommCategory category) BAFFLE_REQUIRES(mu_);
  /// Sends `frame`'s bytes to each of `ids`: a copy each, and the last
  /// one the frame itself.
  void send_to_all(const std::vector<std::size_t>& ids, WireBytes frame,
                   CommCategory category) BAFFLE_REQUIRES(mu_);
  /// Admission check of one frame read from `client_id`'s channel in
  /// the `expected` (update or vote) phase of `round`: the decoded
  /// message when it passes every check, else nullopt (stats updated).
  std::optional<WireMessage> admit(const WireBytes& frame,
                                   std::size_t client_id, std::uint64_t round,
                                   MsgType expected) BAFFLE_REQUIRES(mu_);

  RoundServerConfig config_;
  std::size_t expected_params_;
  // Lock order: mu_ before any channel's internal link mutex (channel
  // calls happen under mu_; channels never call back into the server).
  // The collection loop releases mu_ between sweeps, so the accounting
  // surface stays readable while it waits.
  mutable Mutex mu_;
  std::unordered_map<std::size_t, Session> sessions_ BAFFLE_GUARDED_BY(mu_);
  ProtocolStats stats_ BAFFLE_GUARDED_BY(mu_);
  CommTracker* tracker_ = nullptr;
};

}  // namespace baffle
