#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>
#include <string>

#include "fl/server.hpp"
#include "support/alloc_counter.hpp"

namespace baffle {
namespace {

ModelBroadcast sample_broadcast() {
  ModelBroadcast m;
  m.round = 7;
  m.version = 6;
  m.purpose = ModelPurpose::kCandidate;
  m.params = {1.0f, -2.5f, 0.0f};
  return m;
}

ClientUpdate sample_update() {
  ClientUpdate m;
  m.round = 7;
  m.client_id = 13;
  m.update = {0.25f, -0.5f};
  return m;
}

Vote sample_vote() {
  Vote m;
  m.round = 7;
  m.client_id = 13;
  m.vote = 1;
  m.abstained = 0;
  m.phi = 2.75;
  m.tau = 1.5;
  return m;
}

HistoryDelta sample_delta() {
  HistoryDelta m;
  m.round = 7;
  m.entries.push_back({4, {1.0f}});
  m.entries.push_back({5, {2.0f}});
  m.entries.push_back({6, {3.0f}});
  return m;
}

RoundResult sample_result() {
  RoundResult m;
  m.round = 7;
  m.committed = 1;
  m.version = 7;
  m.reject_votes = 2;
  m.total_voters = 9;
  return m;
}

/// Little-endian fields appended by hand: the grammar wire.hpp
/// documents, spelled out without the encoder's ByteWriter.
class Body {
 public:
  Body& u8(std::uint64_t v) { return le(v, 1); }
  Body& u16(std::uint64_t v) { return le(v, 2); }
  Body& u32(std::uint64_t v) { return le(v, 4); }
  Body& u64(std::uint64_t v) { return le(v, 8); }
  Body& f64(double v) { return le(std::bit_cast<std::uint64_t>(v), 8); }
  /// A u64 element count, then each float's bits.
  Body& f32s(std::initializer_list<float> v) {
    u64(v.size());
    for (float f : v) le(std::bit_cast<std::uint32_t>(f), 4);
    return *this;
  }
  /// u32 payload_len, u16 protocol_version, u8 message_type, body.
  WireBytes frame(MsgType type) const {
    Body f;
    f.u32(bytes_.size() + 3).u16(kProtocolVersion);
    f.u8(static_cast<std::uint8_t>(type));
    f.bytes_.insert(f.bytes_.end(), bytes_.begin(), bytes_.end());
    return f.bytes_;
  }

 private:
  Body& le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    return *this;
  }
  WireBytes bytes_;
};

std::shared_ptr<const GlobalModel> snapshot(std::uint64_t v, ParamVec params) {
  return std::make_shared<const GlobalModel>(GlobalModel{v, std::move(params)});
}

/// `frame` as lowercase hex, two digits per byte.
std::string hex(const WireBytes& frame) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t byte : frame) {
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0xf];
  }
  return out;
}

TEST(Wire, FrameBytesMatchGrammar) {
  // One frame as hex, which also pins Body: payload_len 28, version 1,
  // type 5, round 7, committed 1, version 7, 2 reject votes, 9 voters.
  const std::string result_hex =
      "1c00000001000507000000000000000107000000000000000200000009000000";
  EXPECT_EQ(hex(encode_frame(sample_result())), result_hex);
  Body result;
  result.u64(7).u8(1).u64(7).u32(2).u32(9);
  EXPECT_EQ(encode_frame(sample_result()), result.frame(MsgType::kRoundResult));

  Body broadcast;
  broadcast.u64(7).u64(6).u8(1).f32s({1.0f, -2.5f, 0.0f});
  EXPECT_EQ(encode_frame(sample_broadcast()),
            broadcast.frame(MsgType::kModelBroadcast));
  Body empty_broadcast;
  empty_broadcast.u64(0).u64(0).u8(0).f32s({});
  EXPECT_EQ(encode_frame(ModelBroadcast{}),
            empty_broadcast.frame(MsgType::kModelBroadcast));

  Body update;
  update.u64(7).u64(13).f32s({0.25f, -0.5f});
  EXPECT_EQ(encode_frame(sample_update()),
            update.frame(MsgType::kClientUpdate));
  Body empty_update;
  empty_update.u64(0).u64(0).f32s({});
  EXPECT_EQ(encode_frame(ClientUpdate{}),
            empty_update.frame(MsgType::kClientUpdate));

  Body vote;
  vote.u64(7).u64(13).u8(1).u8(0).f64(2.75).f64(1.5);
  EXPECT_EQ(encode_frame(sample_vote()), vote.frame(MsgType::kVote));

  // Several entries, one of them empty, and bit patterns == would
  // blur.
  const float nan = std::bit_cast<float>(std::uint32_t{0x7fc00005});
  HistoryDelta delta;
  delta.round = 9;
  delta.entries.push_back({4, {1.0f}});
  delta.entries.push_back({5, {}});
  delta.entries.push_back({8, {-0.0f, nan, 3.0f}});
  Body delta_body;
  delta_body.u64(9).u64(3);
  delta_body.u64(4).f32s({1.0f});
  delta_body.u64(5).f32s({});
  delta_body.u64(8).f32s({-0.0f, nan, 3.0f});
  EXPECT_EQ(encode_frame(delta), delta_body.frame(MsgType::kHistoryDelta));
  Body empty_delta;
  empty_delta.u64(0).u64(0);
  EXPECT_EQ(encode_frame(HistoryDelta{}),
            empty_delta.frame(MsgType::kHistoryDelta));
}

TEST(Wire, EncodeFrameAllocatesOnce) {
  // A FEMNIST-sized model: the frame is sized before it is written, so
  // encoding reserves once and never regrows.
  constexpr std::size_t kModel = 11'000;
  const ParamVec params(kModel, 0.5f);
  HistoryDelta delta;
  std::vector<std::shared_ptr<const GlobalModel>> snapshots;
  for (std::uint64_t v = 1; v <= 3; ++v) {
    delta.entries.push_back({v, params});
    snapshots.push_back(snapshot(v, params));
  }
  std::vector<WireMessage> msgs;
  msgs.emplace_back(ModelBroadcast{3, 2, ModelPurpose::kTraining, params});
  msgs.emplace_back(ClientUpdate{3, 1, params});
  msgs.emplace_back(delta);
  for (const WireMessage& msg : msgs) {
    const std::size_t before = heap_allocations();
    const WireBytes frame = encode_frame(msg);
    EXPECT_EQ(heap_allocations() - before, 1u)
        << msg_type_name(static_cast<MsgType>(msg.index() + 1));
    EXPECT_GT(frame.size(), kModel * sizeof(float));
  }
  std::size_t before = heap_allocations();
  (void)encode_model_broadcast(3, 2, ModelPurpose::kCandidate, params);
  EXPECT_EQ(heap_allocations() - before, 1u);
  before = heap_allocations();
  (void)encode_history_delta(3, snapshots);
  EXPECT_EQ(heap_allocations() - before, 1u);
}

TEST(Wire, SnapshotEncodersMatchEncodeFrame) {
  const float nan = std::bit_cast<float>(std::uint32_t{0xffc00003});
  std::vector<std::shared_ptr<const GlobalModel>> snapshots;
  snapshots.push_back(snapshot(4, {1.0f, 2.0f}));
  snapshots.push_back(snapshot(5, {}));
  snapshots.push_back(snapshot(9, {-0.0f, nan}));
  HistoryDelta delta;
  delta.round = 11;
  for (const auto& s : snapshots) {
    delta.entries.push_back({s->version, s->params});
  }
  EXPECT_EQ(encode_history_delta(11, snapshots), encode_frame(delta));
  EXPECT_EQ(encode_history_delta(11, std::span(snapshots).subspan(2)),
            encode_frame(HistoryDelta{11, {delta.entries[2]}}));
  EXPECT_EQ(encode_history_delta(11, {}), encode_frame(HistoryDelta{11, {}}));

  const ModelBroadcast m = sample_broadcast();
  const WireBytes direct =
      encode_model_broadcast(m.round, m.version, m.purpose, m.params);
  EXPECT_EQ(direct, encode_frame(m));
}

TEST(Wire, FrameViewAliasesTheFrameAndMatchesDecode) {
  HistoryDelta delta;
  delta.round = 3;
  delta.entries.push_back({1, {1.0f, -0.0f}});
  delta.entries.push_back({2, {}});
  delta.entries.push_back({6, {4.0f}});
  const WireBytes frame = encode_frame(delta);
  const auto view = std::get<HistoryDeltaView>(decode_frame_view(frame));
  const auto owned = std::get<HistoryDelta>(decode_frame(frame));
  EXPECT_EQ(view.round, 3u);
  ASSERT_EQ(view.entries.size(), 3u);
  for (std::size_t i = 0; i < view.entries.size(); ++i) {
    SCOPED_TRACE(i);
    const F32View params = view.entries[i].params;
    EXPECT_EQ(view.entries[i].version, owned.entries[i].version);
    EXPECT_TRUE(params.same_bytes(owned.entries[i].params));
    if (params.size() > 0) {  // the payload lies inside the frame
      EXPECT_GE(params.bytes().data(), frame.data());
      EXPECT_LE(params.bytes().data() + params.bytes().size(),
                frame.data() + frame.size());
    }
  }
  EXPECT_FALSE(view.entries[0].params.same_bytes(ParamVec{1.0f, 0.0f}));

  const WireBytes update = encode_frame(sample_update());
  const auto update_view =
      std::get<ClientUpdateView>(decode_frame_view(update));
  ParamVec copied;
  update_view.update.copy_into(copied);
  EXPECT_EQ(copied, sample_update().update);
  const WireBytes vote = encode_frame(sample_vote());
  EXPECT_EQ(std::get<Vote>(decode_frame_view(vote)).phi, 2.75);
}

TEST(Wire, ModelBroadcastRoundTrips) {
  const auto msg = decode_frame(encode_frame(sample_broadcast()));
  const auto& m = std::get<ModelBroadcast>(msg);
  EXPECT_EQ(m.round, 7u);
  EXPECT_EQ(m.version, 6u);
  EXPECT_EQ(m.purpose, ModelPurpose::kCandidate);
  EXPECT_EQ(m.params, (ParamVec{1.0f, -2.5f, 0.0f}));
}

TEST(Wire, ClientUpdateRoundTrips) {
  const auto msg = decode_frame(encode_frame(sample_update()));
  const auto& m = std::get<ClientUpdate>(msg);
  EXPECT_EQ(m.round, 7u);
  EXPECT_EQ(m.client_id, 13u);
  EXPECT_EQ(m.update, (ParamVec{0.25f, -0.5f}));
}

TEST(Wire, VoteRoundTrips) {
  const auto msg = decode_frame(encode_frame(sample_vote()));
  const auto& m = std::get<Vote>(msg);
  EXPECT_EQ(m.round, 7u);
  EXPECT_EQ(m.client_id, 13u);
  EXPECT_EQ(m.vote, 1);
  EXPECT_EQ(m.abstained, 0);
  EXPECT_DOUBLE_EQ(m.phi, 2.75);
  EXPECT_DOUBLE_EQ(m.tau, 1.5);
}

TEST(Wire, HistoryDeltaRoundTrips) {
  const auto msg = decode_frame(encode_frame(sample_delta()));
  const auto& m = std::get<HistoryDelta>(msg);
  ASSERT_EQ(m.entries.size(), 3u);
  EXPECT_EQ(m.entries[0].version, 4u);
  EXPECT_EQ(m.entries[2].version, 6u);
  EXPECT_EQ(m.entries[1].params, (ParamVec{2.0f}));
}

TEST(Wire, RoundResultRoundTrips) {
  const auto msg = decode_frame(encode_frame(sample_result()));
  const auto& m = std::get<RoundResult>(msg);
  EXPECT_EQ(m.round, 7u);
  EXPECT_EQ(m.committed, 1);
  EXPECT_EQ(m.version, 7u);
  EXPECT_EQ(m.reject_votes, 2u);
  EXPECT_EQ(m.total_voters, 9u);
}

TEST(Wire, EmptyParamVectorsRoundTrip) {
  ModelBroadcast m;
  m.params = {};
  const auto out =
      std::get<ModelBroadcast>(decode_frame(encode_frame(WireMessage{m})));
  EXPECT_TRUE(out.params.empty());
  HistoryDelta d;  // no entries at all: a fully synced validator
  const auto dout =
      std::get<HistoryDelta>(decode_frame(encode_frame(WireMessage{d})));
  EXPECT_TRUE(dout.entries.empty());
}

TEST(Wire, UnsupportedVersionRejected) {
  const auto newer =
      encode_frame(sample_vote(), kProtocolVersion + 1);
  EXPECT_THROW(decode_frame(newer), WireError);
  if (kProtocolVersionMin > 0) {
    const auto older = encode_frame(sample_vote(), kProtocolVersionMin - 1);
    EXPECT_THROW(decode_frame(older), WireError);
  }
}

TEST(Wire, UnknownMessageTypeRejected) {
  auto frame = encode_frame(sample_vote());
  // Type byte sits after u32 length + u16 version.
  frame[6] = 99;
  EXPECT_THROW(decode_frame(frame), WireError);
  frame[6] = 0;  // zero is reserved, not a message
  EXPECT_THROW(decode_frame(frame), WireError);
}

TEST(Wire, TrailingBytesRejected) {
  auto frame = encode_frame(sample_update());
  frame.push_back(0xAB);
  // The appended byte disagrees with the length prefix…
  EXPECT_THROW(decode_frame(frame), WireError);
  // …and even a "fixed-up" length prefix leaves the body over-long.
  const std::uint32_t fixed =
      static_cast<std::uint32_t>(frame.size() - 4);
  frame[0] = static_cast<std::uint8_t>(fixed);
  frame[1] = static_cast<std::uint8_t>(fixed >> 8);
  frame[2] = static_cast<std::uint8_t>(fixed >> 16);
  frame[3] = static_cast<std::uint8_t>(fixed >> 24);
  EXPECT_THROW(decode_frame(frame), WireError);
}

TEST(Wire, LengthFieldMismatchRejected) {
  auto frame = encode_frame(sample_vote());
  frame[0] ^= 0x01;  // length no longer matches the buffer
  EXPECT_THROW(decode_frame(frame), WireError);
}

// Every prefix of every message type must fail loudly — std::exception,
// never a crash or over-read (locked in under ASan by the fuzz stage).
TEST(Wire, TruncationSweepAllMessageTypes) {
  const WireMessage msgs[] = {
      WireMessage{sample_broadcast()}, WireMessage{sample_update()},
      WireMessage{sample_vote()},      WireMessage{sample_delta()},
      WireMessage{sample_result()},
  };
  for (const auto& msg : msgs) {
    const auto full = encode_frame(msg);
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      SCOPED_TRACE(testing::Message()
                   << msg_type_name(static_cast<MsgType>(msg.index() + 1))
                   << " cut at " << cut);
      const std::span<const std::uint8_t> prefix(full.data(), cut);
      EXPECT_THROW(decode_frame(prefix), std::exception);
      EXPECT_THROW(decode_frame_view(prefix), std::exception);
    }
    EXPECT_NO_THROW(decode_frame(full));
    EXPECT_NO_THROW(decode_frame_view(full));
  }
}

TEST(Wire, OutOfRangeVoteFieldRejected) {
  Vote v = sample_vote();
  v.vote = 2;
  EXPECT_THROW(decode_frame(encode_frame(WireMessage{v})), WireError);
  v = sample_vote();
  v.abstained = 7;
  EXPECT_THROW(decode_frame(encode_frame(WireMessage{v})), WireError);
}

TEST(Wire, OutOfRangePurposeRejected) {
  ModelBroadcast m = sample_broadcast();
  m.purpose = static_cast<ModelPurpose>(3);
  EXPECT_THROW(decode_frame(encode_frame(WireMessage{m})), WireError);
}

TEST(Wire, NonIncreasingDeltaVersionsRejected) {
  HistoryDelta d;
  d.entries.push_back({5, {1.0f}});
  d.entries.push_back({5, {2.0f}});  // duplicate version
  EXPECT_THROW(decode_frame(encode_frame(WireMessage{d})), WireError);
  d.entries.clear();
  d.entries.push_back({5, {1.0f}});
  d.entries.push_back({4, {2.0f}});  // regressing version
  EXPECT_THROW(decode_frame(encode_frame(WireMessage{d})), WireError);
}

TEST(Wire, OversizedHistoryEntryCountRejected) {
  // Forge a delta frame claiming an absurd entry count. Build the body
  // by hand so we don't have to materialize 2^20 entries.
  ByteWriter body;
  body.u16(kProtocolVersion);
  body.u8(static_cast<std::uint8_t>(MsgType::kHistoryDelta));
  body.u64(1);           // round
  body.u64(1u << 20);    // entry count far above the cap
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(body.bytes().size()));
  w.raw(body.bytes());
  EXPECT_THROW(decode_frame(w.bytes()), std::exception);
}

TEST(Wire, MsgTypeNamesAreStable) {
  EXPECT_STREQ(msg_type_name(MsgType::kModelBroadcast), "ModelBroadcast");
  EXPECT_STREQ(msg_type_name(MsgType::kClientUpdate), "ClientUpdate");
  EXPECT_STREQ(msg_type_name(MsgType::kVote), "Vote");
  EXPECT_STREQ(msg_type_name(MsgType::kHistoryDelta), "HistoryDelta");
  EXPECT_STREQ(msg_type_name(MsgType::kRoundResult), "RoundResult");
}

TEST(Wire, VariantOrderMatchesMsgTypeNumbering) {
  // decode/recv_expect rely on MsgType == variant index + 1.
  EXPECT_EQ(WireMessage{ModelBroadcast{}}.index() + 1,
            static_cast<std::size_t>(MsgType::kModelBroadcast));
  EXPECT_EQ(WireMessage{RoundResult{}}.index() + 1,
            static_cast<std::size_t>(MsgType::kRoundResult));
}

}  // namespace
}  // namespace baffle
