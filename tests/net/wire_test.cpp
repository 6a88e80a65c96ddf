#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

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
    }
    EXPECT_NO_THROW(decode_frame(full));
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
