#pragma once
// Versioned wire protocol for the FL round server (DESIGN.md §13).
//
// Every exchange between the server and a (simulated) client is one
// length-prefixed frame:
//
//   u32  payload_len          bytes after this field
//   u16  protocol_version     kProtocolVersionMin ≤ v ≤ kProtocolVersion
//   u8   message_type         MsgType
//   ...  body                 message-specific, see the structs below
//
// Decoding is strict: the frame length must match the buffer, the body
// must consume the payload exactly (trailing bytes are an error), every
// length prefix is overflow-checked (util/serialization), and unknown
// versions or message types are rejected. A malformed frame therefore
// always surfaces as WireError (std::runtime_error) — never as a crash
// or an over-read — which is what the protocol-fuzz stage in
// tools/check.sh locks in under ASan.
//
// Model parameters travel as raw f32 vectors (the architecture is
// session-static scenario configuration). Each payload costs one copy
// per side: encode_frame sizes the frame from the message and writes
// length, header and body into one buffer, and decode_frame_view
// leaves every payload in the frame as an F32View, from which a
// receiver copies (decode_frame, one memcpy on little-endian hosts) or
// compares (SnapshotStore::intern) without an intermediate vector.
// decode_frame is decode_frame_view plus those copies: there is one
// parser, so both entry points make the same checks.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "fl/update.hpp"
#include "util/serialization.hpp"

namespace baffle {

struct GlobalModel;

/// Newest protocol revision this build speaks…
inline constexpr std::uint16_t kProtocolVersion = 1;
/// …and the oldest revision it still accepts. A frame with a version in
/// [min, current] decodes (all revisions so far share one grammar); a
/// newer or older version is a WireError, which is the entire
/// negotiation story: the server answers a rejected frame by closing the
/// session, so a mixed-version fleet degrades to explicit errors rather
/// than silent misparses.
inline constexpr std::uint16_t kProtocolVersionMin = 1;

/// Malformed frame / unknown version / grammar violation.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

enum class MsgType : std::uint8_t {
  kModelBroadcast = 1,
  kClientUpdate = 2,
  kVote = 3,
  kHistoryDelta = 4,
  kRoundResult = 5,
};

const char* msg_type_name(MsgType type);

/// Why the server is shipping a model this round: the committed global
/// model contributors train on, or the aggregated candidate validators
/// judge (Algorithm 1's VALIDATE input).
enum class ModelPurpose : std::uint8_t { kTraining = 0, kCandidate = 1 };

/// Server → client: one model, flat parameters.
struct ModelBroadcast {
  std::uint64_t round = 0;
  /// Committed version for kTraining; for kCandidate the version the
  /// model will receive if the round commits (server.version() + 1).
  std::uint64_t version = 0;
  ModelPurpose purpose = ModelPurpose::kTraining;
  ParamVec params;
};

/// Client → server: the round's local-training update U = L − G.
struct ClientUpdate {
  std::uint64_t round = 0;
  std::uint64_t client_id = 0;
  ParamVec update;
};

/// Client → server: VALIDATE verdict on the candidate.
struct Vote {
  std::uint64_t round = 0;
  std::uint64_t client_id = 0;
  std::uint8_t vote = 0;       // 1 = poisoned, 0 = clean
  std::uint8_t abstained = 0;  // history too short / no data to judge
  double phi = 0.0;            // candidate LOF (diagnostics)
  double tau = 0.0;            // rejection threshold (diagnostics)
};

/// Server → validating client: the history entries it is missing. A
/// client that validated recently gets only the delta (§VI-D's
/// amortization); a first-time or long-absent validator gets the full
/// ℓ+1 window.
struct HistoryDelta {
  std::uint64_t round = 0;
  struct Entry {
    std::uint64_t version = 0;
    ParamVec params;
  };
  std::vector<Entry> entries;  // oldest first
};

/// Server → round participants: the round's outcome. Validators use it
/// to promote/drop the candidate they judged (commit → the candidate
/// becomes `version`; reject → roll back).
struct RoundResult {
  std::uint64_t round = 0;
  std::uint8_t committed = 0;
  std::uint64_t version = 0;  // committed version; pre-round on reject
  std::uint32_t reject_votes = 0;
  std::uint32_t total_voters = 0;
};

using WireMessage = std::variant<ModelBroadcast, ClientUpdate, Vote,
                                 HistoryDelta, RoundResult>;

/// The messages that carry model payloads, decoded in place: the same
/// fields, with each f32 vector left in its frame. Vote and RoundResult
/// carry none, so they are their own views.
struct ModelBroadcastView {
  std::uint64_t round = 0;
  std::uint64_t version = 0;
  ModelPurpose purpose = ModelPurpose::kTraining;
  F32View params;
};

struct ClientUpdateView {
  std::uint64_t round = 0;
  std::uint64_t client_id = 0;
  F32View update;
};

struct HistoryDeltaView {
  std::uint64_t round = 0;
  struct Entry {
    std::uint64_t version = 0;
    F32View params;
  };
  std::vector<Entry> entries;  // oldest first
};

/// Alternatives in WireMessage's order (MsgType == index + 1).
using WireView = std::variant<ModelBroadcastView, ClientUpdateView, Vote,
                              HistoryDeltaView, RoundResult>;

using WireBytes = std::vector<std::uint8_t>;

/// Encodes one message as a complete frame (length prefix included),
/// stamped with `version` (defaults to the current protocol revision —
/// the knob exists so tests can forge unsupported versions). One heap
/// allocation: the frame is sized before it is written.
WireBytes encode_frame(const WireMessage& msg,
                       std::uint16_t version = kProtocolVersion);

/// The frame encode_frame gives a ModelBroadcast{round, version,
/// purpose, params}, written straight from `params`.
WireBytes encode_model_broadcast(std::uint64_t round, std::uint64_t version,
                                 ModelPurpose purpose,
                                 std::span<const float> params);

/// The frame encode_frame gives a HistoryDelta of `round` whose entries
/// copy `entries` (oldest first), written straight from the shared
/// snapshots.
WireBytes encode_history_delta(
    std::uint64_t round,
    std::span<const std::shared_ptr<const GlobalModel>> entries);

/// Decodes one complete frame, leaving its payloads in place: the
/// result's F32Views alias `frame` and are valid only while it is.
/// Throws WireError on malformed input (bad length, unknown
/// version/type, out-of-range field, entry cap, versions that do not
/// strictly increase, trailing bytes) and std::out_of_range on
/// truncation; both are protocol errors.
WireView decode_frame_view(std::span<const std::uint8_t> frame);

/// decode_frame_view, with every payload copied out of the frame.
WireMessage decode_frame(std::span<const std::uint8_t> frame);

}  // namespace baffle
