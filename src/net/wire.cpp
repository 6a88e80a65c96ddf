#include "net/wire.hpp"

namespace baffle {

namespace {

// Hard ceilings on decoded container sizes, enforced before any
// allocation: a frame that passed the length-prefix checks can still
// claim absurd element counts relative to the deployment (e.g. a
// history delta of 2^32 entries each of zero floats).
constexpr std::size_t kMaxHistoryEntries = 4096;

void encode_body(ByteWriter& w, const ModelBroadcast& m) {
  w.u64(m.round);
  w.u64(m.version);
  w.u8(static_cast<std::uint8_t>(m.purpose));
  w.f32_span(m.params);
}

void encode_body(ByteWriter& w, const ClientUpdate& m) {
  w.u64(m.round);
  w.u64(m.client_id);
  w.f32_span(m.update);
}

void encode_body(ByteWriter& w, const Vote& m) {
  w.u64(m.round);
  w.u64(m.client_id);
  w.u8(m.vote);
  w.u8(m.abstained);
  w.f64(m.phi);
  w.f64(m.tau);
}

void encode_body(ByteWriter& w, const HistoryDelta& m) {
  w.u64(m.round);
  w.u64(m.entries.size());
  for (const auto& entry : m.entries) {
    w.u64(entry.version);
    w.f32_span(entry.params);
  }
}

void encode_body(ByteWriter& w, const RoundResult& m) {
  w.u64(m.round);
  w.u8(m.committed);
  w.u64(m.version);
  w.u32(m.reject_votes);
  w.u32(m.total_voters);
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

ModelBroadcast decode_model_broadcast(ByteReader& r) {
  ModelBroadcast m;
  m.round = r.u64();
  m.version = r.u64();
  const std::uint8_t purpose = r.u8();
  if (purpose > static_cast<std::uint8_t>(ModelPurpose::kCandidate)) {
    throw WireError("wire: unknown model purpose");
  }
  m.purpose = static_cast<ModelPurpose>(purpose);
  r.f32_vec_into(m.params);
  return m;
}

ClientUpdate decode_client_update(ByteReader& r) {
  ClientUpdate m;
  m.round = r.u64();
  m.client_id = r.u64();
  r.f32_vec_into(m.update);
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

HistoryDelta decode_history_delta(ByteReader& r) {
  HistoryDelta m;
  m.round = r.u64();
  const std::uint64_t count = r.u64();
  if (count > kMaxHistoryEntries) {
    throw WireError("wire: implausible history delta entry count");
  }
  m.entries.reserve(count);
  std::uint64_t prev_version = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    HistoryDelta::Entry entry;
    entry.version = r.u64();
    if (i > 0 && entry.version <= prev_version) {
      throw WireError("wire: history delta versions must strictly increase");
    }
    prev_version = entry.version;
    r.f32_vec_into(entry.params);
    m.entries.push_back(std::move(entry));
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
  ByteWriter body;
  body.u16(version);
  body.u8(static_cast<std::uint8_t>(type_of(msg)));
  std::visit([&](const auto& m) { encode_body(body, m); }, msg);

  ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(body.size()));
  frame.raw(body.bytes());
  return frame.take();
}

WireMessage decode_frame(std::span<const std::uint8_t> frame) {
  ByteReader r = open_frame(frame);
  const std::uint16_t version = r.u16();
  if (version < kProtocolVersionMin || version > kProtocolVersion) {
    throw WireError("wire: unsupported protocol version");
  }
  const std::uint8_t type = r.u8();
  WireMessage msg = [&]() -> WireMessage {
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
  return msg;
}

}  // namespace baffle
