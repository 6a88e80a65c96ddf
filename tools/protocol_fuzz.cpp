// protocol_fuzz — deterministic smoke fuzzer for the wire protocol.
//
// Derives hostile frames from valid frames of every message type with a
// seeded Rng and drives them through two lanes:
//
//   1. decode: every pristine frame must decode, and every proper prefix
//      of it must be rejected with an exception;
//   2. session: bursts of frames with 1..8 random bits flipped, and of
//      random garbage, are sent on the client channel of a RoundServer
//      session, then collected (RoundServer::collect, the one loop both
//      inbound phases use) with a zero deadline. Collection must return
//      without throwing, every frame sent must land either in the
//      collected set or in ProtocolStats, and the tracker's byte count
//      must equal the channels' own.
//
// Both lanes decode each frame in place too (decode_frame_view, what
// client actors read) and intern every payload of a frame that decodes
// through a SnapshotStore, as actors do: the snapshot must hold the
// bytes decode_frame copies out, and a burst keeps its snapshots alive
// so later frames exercise the store's comparison as well as its copy.
//
// The contract under test (src/net/wire.hpp, src/net/round_server.hpp):
// a malformed frame always surfaces as a thrown std::exception or a
// counted rejection — never a crash, hang, or out-of-bounds read. Run
// under ASan/UBSan (tools/check.sh --fuzz, CI's protocol-fuzz job) any
// over-read becomes a hard failure; in a plain build this still catches
// crashes and accept/reject contract breaks.
//
// Exits 0 on success, 1 with a diagnostic on the first violation or
// when no case ran, 2 on a bad flag. Deterministic: same seed, same
// corpus, same result.

#include <chrono>
#include <cstdio>

#include "cli_flags.hpp"
#include "fl/comm.hpp"
#include "net/client_actor.hpp"
#include "net/round_server.hpp"
#include "util/rng.hpp"

namespace {

using namespace baffle;

constexpr const char* kHelp =
    "protocol_fuzz — deterministic wire-protocol fuzzer\n"
    "\n"
    "  --seed=N     corpus seed (42)\n"
    "  --rounds=N   corpus rounds (50); 0 runs no case and exits 1";

/// Round and model size of the fuzzed session: the corpus's updates and
/// votes carry them, so intact or lightly flipped ones are admissible.
constexpr std::uint64_t kRound = 7;
constexpr std::size_t kParams = 16;

ParamVec random_params(Rng& rng, std::size_t len) {
  ParamVec params(len);
  for (auto& p : params) p = static_cast<float>(rng.normal());
  return params;
}

std::size_t random_len(Rng& rng, std::size_t max_len) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
}

/// One valid frame of each message type, sizes varied by the rng.
std::vector<WireBytes> seed_corpus(Rng& rng) {
  std::vector<WireBytes> corpus;

  ModelBroadcast broadcast;
  broadcast.round = rng.next_u64() % 1000;
  broadcast.version = broadcast.round;
  broadcast.purpose =
      rng.bernoulli(0.5) ? ModelPurpose::kTraining : ModelPurpose::kCandidate;
  broadcast.params = random_params(rng, random_len(rng, 64));
  corpus.push_back(encode_frame(broadcast));

  ClientUpdate update;
  update.round = kRound;
  update.client_id = 0;
  update.update = random_params(rng, kParams);
  corpus.push_back(encode_frame(update));

  Vote vote;
  vote.round = kRound;
  vote.client_id = 0;
  vote.vote = rng.bernoulli(0.5) ? 1 : 0;
  vote.abstained = rng.bernoulli(0.2) ? 1 : 0;
  vote.phi = rng.normal(0.0, 10.0);
  vote.tau = rng.normal(0.0, 10.0);
  corpus.push_back(encode_frame(vote));

  HistoryDelta delta;
  delta.round = rng.next_u64() % 1000;
  const std::size_t entries = random_len(rng, 6);
  for (std::size_t i = 0; i < entries; ++i) {
    delta.entries.push_back(HistoryDelta::Entry{
        delta.round + i, random_params(rng, random_len(rng, 16))});
  }
  corpus.push_back(encode_frame(delta));

  RoundResult result;
  result.round = rng.next_u64() % 1000;
  result.committed = rng.bernoulli(0.5) ? 1 : 0;
  result.version = result.round;
  result.reject_votes = static_cast<std::uint32_t>(rng.next_u64() % 10);
  result.total_voters = static_cast<std::uint32_t>(rng.next_u64() % 20);
  corpus.push_back(encode_frame(result));

  return corpus;
}

/// Decodes frames in place and interns every payload of each frame that
/// decodes, as client actors do, into one store. Snapshots stay held
/// until release(), so a burst's later frames meet its earlier ones.
class PayloadCheck {
 public:
  /// Decoding either succeeds or throws std::exception; anything else
  /// (a crash, an ASan report) never returns here. Returns whether the
  /// frame decoded.
  bool decode_is_clean(std::span<const std::uint8_t> frame) {
    WireView view;
    try {
      view = decode_frame_view(frame);
    } catch (const std::exception&) {
      return false;
    }
    const WireMessage owned = decode_frame(frame);
    if (const auto* m = std::get_if<ModelBroadcastView>(&view)) {
      intern(m->version, m->params, std::get<ModelBroadcast>(owned).params);
    } else if (const auto* u = std::get_if<ClientUpdateView>(&view)) {
      intern(u->round, u->update, std::get<ClientUpdate>(owned).update);
    } else if (const auto* d = std::get_if<HistoryDeltaView>(&view)) {
      const auto& entries = std::get<HistoryDelta>(owned).entries;
      for (std::size_t i = 0; i < d->entries.size(); ++i) {
        intern(d->entries[i].version, d->entries[i].params, entries[i].params);
      }
    }
    return true;
  }

  /// Drops the held snapshots, counting the ones the store had to copy.
  void release() {
    copied_ += store_.live();
    held_.clear();
  }

  std::uint64_t interned() const { return interned_; }
  std::uint64_t copied() const { return copied_; }
  /// Whether some snapshot differed from decode_frame's copy of its
  /// payload.
  bool mismatch() const { return mismatch_; }

 private:
  void intern(std::uint64_t version, const F32View& payload,
              const ParamVec& copy) {
    held_.push_back(store_.intern(version, payload));
    mismatch_ = mismatch_ || !same_bytes(held_.back()->params, copy);
    ++interned_;
  }

  SnapshotStore store_;
  std::vector<std::shared_ptr<const GlobalModel>> held_;
  std::uint64_t interned_ = 0;
  std::uint64_t copied_ = 0;
  bool mismatch_ = false;
};

/// A one-client RoundServer session whose collection never waits.
class FuzzSession {
 public:
  FuzzSession()
      : server_(RoundServerConfig{std::chrono::milliseconds(0),
                                  std::chrono::milliseconds(0)},
                kParams),
        tracker_(1, kParams * sizeof(float), 2) {
    DuplexChannel duplex = transport_.connect();
    server_.add_session(0, duplex.server);
    client_ = duplex.client;
    server_.set_tracker(&tracker_);
  }

  /// Sends `burst` from the client and collects a `type` phase. Returns
  /// false (after printing why) if collection threw or lost a frame.
  bool collect_burst(const std::vector<WireBytes>& burst, MsgType type) {
    for (const auto& frame : burst) client_->send(frame);
    const std::uint64_t rejected_before =
        server_.protocol_stats().total_rejected();
    std::size_t collected = 0;
    try {
      collected = server_.collect(kRound, type, {0}).messages.size();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "protocol_fuzz: collect threw: %s\n", e.what());
      return false;
    }
    const std::uint64_t rejected =
        server_.protocol_stats().total_rejected() - rejected_before;
    if (rejected + collected != burst.size()) {
      std::fprintf(stderr,
                   "protocol_fuzz: %zu frames sent, %llu rejected + %zu "
                   "collected\n",
                   burst.size(), static_cast<unsigned long long>(rejected),
                   collected);
      return false;
    }
    return true;
  }

  /// Every byte that crossed the channels was attributed by the tracker.
  bool bytes_reconcile() const {
    return tracker_.stats().total_bytes() == server_.wire_bytes();
  }

 private:
  InProcTransport transport_;
  RoundServer server_;
  CommTracker tracker_;
  std::shared_ptr<Channel> client_;
};

/// The collection phase a burst derived from `pristine` is sent into:
/// its own for updates and votes, a random one for the types clients
/// never send.
MsgType phase_for(const WireMessage& pristine, Rng& rng) {
  if (std::holds_alternative<ClientUpdate>(pristine)) {
    return MsgType::kClientUpdate;
  }
  if (std::holds_alternative<Vote>(pristine)) return MsgType::kVote;
  return rng.bernoulli(0.5) ? MsgType::kClientUpdate : MsgType::kVote;
}

int run(std::uint64_t seed, std::size_t rounds) {
  Rng rng(seed);
  FuzzSession session;
  PayloadCheck payloads;
  std::uint64_t cases = 0;
  std::uint64_t survivors = 0;  // bit-flipped frames that still decode

  for (std::size_t iter = 0; iter < rounds; ++iter) {
    const auto corpus = seed_corpus(rng);

    for (const auto& frame : corpus) {
      if (!payloads.decode_is_clean(frame)) {
        std::fprintf(stderr,
                     "protocol_fuzz: pristine frame rejected (iter %zu)\n",
                     iter);
        return 1;
      }
      ++cases;

      // 1. Every proper prefix must be rejected.
      for (std::size_t cut = 0; cut < frame.size(); ++cut) {
        const std::span<const std::uint8_t> prefix(frame.data(), cut);
        if (payloads.decode_is_clean(prefix)) {
          std::fprintf(stderr,
                       "protocol_fuzz: truncated frame accepted "
                       "(iter %zu, %zu of %zu bytes)\n",
                       iter, cut, frame.size());
          return 1;
        }
        ++cases;
      }

      // 2. Random bit flips: a frame may legitimately still decode and
      // even be admitted (a flipped parameter bit); the session must
      // account for every one.
      std::vector<WireBytes> burst;
      for (int flip = 0; flip < 64; ++flip) {
        WireBytes mutated = frame;
        const auto flips = 1 + rng.uniform_int(0, 7);
        for (std::int64_t b = 0; b < flips; ++b) {
          const auto bit = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(mutated.size()) * 8 - 1));
          mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
        if (payloads.decode_is_clean(mutated)) ++survivors;
        burst.push_back(std::move(mutated));
        ++cases;
      }
      payloads.release();
      if (!session.collect_burst(burst, phase_for(decode_frame(frame), rng))) {
        std::fprintf(stderr, "protocol_fuzz: bit-flip burst (iter %zu)\n",
                     iter);
        return 1;
      }
    }

    // 3. Random garbage of random lengths (including empty).
    std::vector<WireBytes> garbage(64);
    for (auto& bytes : garbage) {
      bytes.resize(random_len(rng, 256));
      for (auto& byte : bytes) {
        byte = static_cast<std::uint8_t>(rng.next_u64());
      }
      (void)payloads.decode_is_clean(bytes);
      ++cases;
    }
    payloads.release();
    const MsgType phase =
        rng.bernoulli(0.5) ? MsgType::kClientUpdate : MsgType::kVote;
    if (!session.collect_burst(garbage, phase)) {
      std::fprintf(stderr, "protocol_fuzz: garbage burst (iter %zu)\n", iter);
      return 1;
    }
  }

  if (payloads.mismatch()) {
    std::fprintf(stderr,
                 "protocol_fuzz: a snapshot interned from a frame differs "
                 "from the frame's decoded copy\n");
    return 1;
  }
  if (!session.bytes_reconcile()) {
    std::fprintf(stderr,
                 "protocol_fuzz: tracker bytes differ from channel bytes\n");
    return 1;
  }
  if (cases == 0) {
    std::fprintf(stderr, "protocol_fuzz: no case ran (--rounds=0)\n");
    return 1;
  }
  std::printf(
      "protocol_fuzz: OK (%llu cases, %llu mutated frames still decoded, "
      "%llu payloads interned, %llu of them copied)\n",
      static_cast<unsigned long long>(cases),
      static_cast<unsigned long long>(survivors),
      static_cast<unsigned long long>(payloads.interned()),
      static_cast<unsigned long long>(payloads.copied()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Flags flags;
  if (const auto exit_code = cli::parse_flags(argc, argv, kHelp, flags)) {
    return *exit_code;
  }
  return run(flags.count("seed", 42), flags.count("rounds", 50));
}
