#include "net/wire.hpp"

#include <limits>

#include "fl/server.hpp"

namespace baffle {

namespace {

// Hard ceilings on decoded container sizes, enforced before any
// allocation: a frame that passed the length-prefix checks can still
// claim absurd element counts relative to the deployment (e.g. a
// history delta of 2^32 entries each of zero floats).
constexpr std::size_t kMaxHistoryEntries = 4096;

// Body encoders, one per message type. Each runs twice per frame: dry
// on a ByteCounter to size the frame, then on the frame's ByteWriter.
template <typename W>
void encode_broadcast_body(W& w, std::uint64_t round, std::uint64_t version,
                           ModelPurpose purpose,
                           std::span<const float> params) {
  w.u64(round);
  w.u64(version);
  w.u8(static_cast<std::uint8_t>(purpose));
  w.f32_span(params);
}

// A delta entry's version and params, from a decoded-message entry or a
// shared window snapshot.
const HistoryDelta::Entry& entry_of(const HistoryDelta::Entry& e) { return e; }
const GlobalModel& entry_of(const std::shared_ptr<const GlobalModel>& s) {
  return *s;
}

template <typename W, typename Entries>
void encode_delta_body(W& w, std::uint64_t round, const Entries& entries) {
  w.u64(round);
  w.u64(entries.size());
  for (const auto& entry : entries) {
    w.u64(entry_of(entry).version);
    w.f32_span(entry_of(entry).params);
  }
}

template <typename W>
void encode_body(W& w, const ModelBroadcast& m) {
  encode_broadcast_body(w, m.round, m.version, m.purpose, m.params);
}

template <typename W>
void encode_body(W& w, const ClientUpdate& m) {
  w.u64(m.round);
  w.u64(m.client_id);
  w.f32_span(m.update);
}

template <typename W>
void encode_body(W& w, const Vote& m) {
  w.u64(m.round);
  w.u64(m.client_id);
  w.u8(m.vote);
  w.u8(m.abstained);
  w.f64(m.phi);
  w.f64(m.tau);
}

template <typename W>
void encode_body(W& w, const HistoryDelta& m) {
  encode_delta_body(w, m.round, m.entries);
}

template <typename W>
void encode_body(W& w, const RoundResult& m) {
  w.u64(m.round);
  w.u8(m.committed);
  w.u64(m.version);
  w.u32(m.reject_votes);
  w.u32(m.total_voters);
}

/// One frame in one buffer: `body(writer)` runs dry to size it, then
/// writes behind the length prefix and header into the reserved bytes.
template <typename Body>
WireBytes encode(MsgType type, std::uint16_t version, const Body& body) {
  ByteCounter counter;
  body(counter);
  constexpr std::size_t kHeader = 2 + 1;  // version, type
  if (counter.size() > std::numeric_limits<std::uint32_t>::max() - kHeader) {
    throw WireError("wire: message too large for one frame");
  }
  const std::size_t payload_len = kHeader + counter.size();
  ByteWriter w;
  w.reserve(4 + payload_len);
  w.u32(static_cast<std::uint32_t>(payload_len));
  w.u16(version);
  w.u8(static_cast<std::uint8_t>(type));
  body(w);
  return w.take();
}

MsgType type_of(const WireMessage& msg) {
  switch (msg.index()) {
    case 0: return MsgType::kModelBroadcast;
    case 1: return MsgType::kClientUpdate;
    case 2: return MsgType::kVote;
    case 3: return MsgType::kHistoryDelta;
    case 4: return MsgType::kRoundResult;
  }
  throw WireError("wire: valueless message");
}

ModelBroadcastView decode_model_broadcast(ByteReader& r) {
  ModelBroadcastView m;
  m.round = r.u64();
  m.version = r.u64();
  const std::uint8_t purpose = r.u8();
  if (purpose > static_cast<std::uint8_t>(ModelPurpose::kCandidate)) {
    throw WireError("wire: unknown model purpose");
  }
  m.purpose = static_cast<ModelPurpose>(purpose);
  m.params = r.f32_view();
  return m;
}

ClientUpdateView decode_client_update(ByteReader& r) {
  ClientUpdateView m;
  m.round = r.u64();
  m.client_id = r.u64();
  m.update = r.f32_view();
  return m;
}

Vote decode_vote(ByteReader& r) {
  Vote m;
  m.round = r.u64();
  m.client_id = r.u64();
  m.vote = r.u8();
  m.abstained = r.u8();
  m.phi = r.f64();
  m.tau = r.f64();
  if (m.vote > 1) throw WireError("wire: vote outside {0,1}");
  if (m.abstained > 1) throw WireError("wire: abstained flag outside {0,1}");
  return m;
}

HistoryDeltaView decode_history_delta(ByteReader& r) {
  HistoryDeltaView m;
  m.round = r.u64();
  const std::uint64_t count = r.u64();
  if (count > kMaxHistoryEntries) {
    throw WireError("wire: implausible history delta entry count");
  }
  m.entries.reserve(count);
  std::uint64_t prev_version = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    HistoryDeltaView::Entry entry;
    entry.version = r.u64();
    if (i > 0 && entry.version <= prev_version) {
      throw WireError("wire: history delta versions must strictly increase");
    }
    prev_version = entry.version;
    entry.params = r.f32_view();
    m.entries.push_back(entry);
  }
  return m;
}

RoundResult decode_round_result(ByteReader& r) {
  RoundResult m;
  m.round = r.u64();
  m.committed = r.u8();
  if (m.committed > 1) throw WireError("wire: committed flag outside {0,1}");
  m.version = r.u64();
  m.reject_votes = r.u32();
  m.total_voters = r.u32();
  return m;
}

/// Validates the frame envelope and returns a reader positioned at the
/// (version, type, body) payload, spanning exactly payload_len bytes.
ByteReader open_frame(std::span<const std::uint8_t> frame) {
  ByteReader header(frame);
  const std::uint32_t payload_len = header.u32();
  if (payload_len != frame.size() - 4) {
    throw WireError("wire: frame length does not match buffer");
  }
  if (payload_len < 3) {  // version (2) + type (1)
    throw WireError("wire: frame too short for header");
  }
  return header;
}

// The owning messages, copied out of their views.
ModelBroadcast materialize(const ModelBroadcastView& v) {
  ModelBroadcast m;
  m.round = v.round;
  m.version = v.version;
  m.purpose = v.purpose;
  v.params.copy_into(m.params);
  return m;
}

ClientUpdate materialize(const ClientUpdateView& v) {
  ClientUpdate m;
  m.round = v.round;
  m.client_id = v.client_id;
  v.update.copy_into(m.update);
  return m;
}

HistoryDelta materialize(const HistoryDeltaView& v) {
  HistoryDelta m;
  m.round = v.round;
  m.entries.resize(v.entries.size());
  for (std::size_t i = 0; i < v.entries.size(); ++i) {
    m.entries[i].version = v.entries[i].version;
    v.entries[i].params.copy_into(m.entries[i].params);
  }
  return m;
}

Vote materialize(const Vote& v) { return v; }
RoundResult materialize(const RoundResult& v) { return v; }

}  // namespace

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kModelBroadcast: return "ModelBroadcast";
    case MsgType::kClientUpdate: return "ClientUpdate";
    case MsgType::kVote: return "Vote";
    case MsgType::kHistoryDelta: return "HistoryDelta";
    case MsgType::kRoundResult: return "RoundResult";
  }
  return "?";
}

WireBytes encode_frame(const WireMessage& msg, std::uint16_t version) {
  const auto encode_message = [&](const auto& m) {
    const auto body = [&](auto& w) { encode_body(w, m); };
    return encode(type_of(msg), version, body);
  };
  return std::visit(encode_message, msg);
}

WireBytes encode_model_broadcast(std::uint64_t round, std::uint64_t version,
                                 ModelPurpose purpose,
                                 std::span<const float> params) {
  const auto body = [&](auto& w) {
    encode_broadcast_body(w, round, version, purpose, params);
  };
  return encode(MsgType::kModelBroadcast, kProtocolVersion, body);
}

WireBytes encode_history_delta(
    std::uint64_t round,
    std::span<const std::shared_ptr<const GlobalModel>> entries) {
  const auto body = [&](auto& w) { encode_delta_body(w, round, entries); };
  return encode(MsgType::kHistoryDelta, kProtocolVersion, body);
}

WireView decode_frame_view(std::span<const std::uint8_t> frame) {
  ByteReader r = open_frame(frame);
  const std::uint16_t version = r.u16();
  if (version < kProtocolVersionMin || version > kProtocolVersion) {
    throw WireError("wire: unsupported protocol version");
  }
  const std::uint8_t type = r.u8();
  WireView view = [&]() -> WireView {
    switch (static_cast<MsgType>(type)) {
      case MsgType::kModelBroadcast: return decode_model_broadcast(r);
      case MsgType::kClientUpdate: return decode_client_update(r);
      case MsgType::kVote: return decode_vote(r);
      case MsgType::kHistoryDelta: return decode_history_delta(r);
      case MsgType::kRoundResult: return decode_round_result(r);
    }
    throw WireError("wire: unknown message type");
  }();
  // Strict decoding: a successful body decode must consume the payload
  // exactly — trailing bytes mean a grammar mismatch between endpoints.
  if (!r.done()) throw WireError("wire: trailing bytes after message body");
  return view;
}

WireMessage decode_frame(std::span<const std::uint8_t> frame) {
  const auto copy_out = [](const auto& view) -> WireMessage {
    return materialize(view);
  };
  return std::visit(copy_out, decode_frame_view(frame));
}

}  // namespace baffle
