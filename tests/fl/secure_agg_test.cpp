#include "fl/secure_agg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "util/rng.hpp"

namespace baffle {
namespace {

SecureAggConfig config(std::uint64_t key = 99) {
  SecureAggConfig c;
  c.round_key = key;
  return c;
}

std::vector<std::size_t> ids(std::initializer_list<std::size_t> v) {
  return {v};
}

/// One round's masked vectors through the round call.
std::vector<MaskedVec> mask_round(
    const SecureAggregation& sa, const std::vector<ParamVec>& updates,
    const std::vector<std::size_t>& senders,
    const std::vector<std::size_t>& participants) {
  std::vector<MaskedVec> out;
  sa.mask(updates, senders, participants, out);
  return out;
}

ParamVec unmask(const SecureAggregation& sa,
                const std::vector<MaskedVec>& masked,
                const std::vector<std::size_t>& senders,
                const std::vector<std::size_t>& participants,
                std::size_t vec_len) {
  MaskedVec total;
  return sa.unmask_sum(masked, senders, participants, vec_len, total);
}

/// Expects `call` to throw std::invalid_argument whose message holds
/// every one of `needles`.
template <typename Call>
void expect_rejected(Call&& call, std::initializer_list<std::string> needles) {
  try {
    call();
    ADD_FAILURE() << "accepted; expected a throw naming '" << *needles.begin()
                  << "'";
  } catch (const std::invalid_argument& e) {
    for (const std::string& needle : needles) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  }
}

/// What the exact-cancellation invariant says unmask_sum must return:
/// decode_sum(Σ encode(u_i) mod 2^64), element by element.
ParamVec fixed_point_sum(const SecureAggregation& sa,
                         const std::vector<ParamVec>& updates) {
  ParamVec out(updates.front().size());
  for (std::size_t k = 0; k < out.size(); ++k) {
    std::uint64_t total = 0;
    for (const auto& u : updates) total += sa.encode(u[k]);
    out[k] = sa.decode_sum(total);
  }
  return out;
}

TEST(SecureAgg, QuantizationRoundTrip) {
  const SecureAggregation sa(config());
  for (float x : {0.0f, 1.0f, -1.0f, 0.123f, -17.5f}) {
    EXPECT_NEAR(sa.decode_sum(sa.encode(x)), x, 1e-6f);
  }
}

TEST(SecureAgg, SumOfTwoMaskedVectorsIsExact) {
  const SecureAggregation sa(config());
  const ParamVec a{1.0f, 2.0f, -3.0f};
  const ParamVec b{0.5f, -1.5f, 4.0f};
  const auto participants = ids({3, 7});
  const auto masked = mask_round(sa, {a, b}, participants, participants);
  const ParamVec total = unmask(sa, masked, participants, participants, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(total[i], a[i] + b[i], 1e-5f);
  }
}

TEST(SecureAgg, MasksAreLarge) {
  // A masked vector must look nothing like the plaintext encoding: for a
  // zero update the mask should dominate.
  const SecureAggregation sa(config());
  const ParamVec zero(8, 0.0f);
  const auto masked = mask_round(sa, {zero}, ids({0}), ids({0, 1}));
  std::size_t nonzero = 0;
  for (auto v : masked[0]) {
    if (v != 0) ++nonzero;
  }
  EXPECT_EQ(nonzero, 8u);
}

TEST(SecureAgg, TenClientSumMatchesPlainSum) {
  const SecureAggregation sa(config(1234));
  Rng rng(5);
  const std::size_t n = 10, dim = 64;
  std::vector<std::size_t> participants(n);
  for (std::size_t i = 0; i < n; ++i) participants[i] = 10 + i;
  std::vector<ParamVec> updates(n, ParamVec(dim));
  for (auto& u : updates) {
    for (float& x : u) x = static_cast<float>(rng.normal());
  }
  const auto masked = mask_round(sa, updates, participants, participants);
  const ParamVec total = unmask(sa, masked, participants, participants, dim);
  EXPECT_EQ(total, fixed_point_sum(sa, updates));
}

TEST(SecureAgg, DropoutRecovery) {
  // 4 participants mask; one never sends. The sum of the survivors must
  // come out exactly after the server cancels the dropped client's
  // pairwise masks.
  const SecureAggregation sa(config(777));
  const auto participants = ids({0, 1, 2, 3});
  const std::vector<ParamVec> updates{
      {1.0f, 1.0f}, {2.0f, -1.0f}, {3.0f, 0.5f}, {4.0f, 9.0f}};
  // Client 2 drops after key agreement.
  const std::vector<ParamVec> sent{updates[0], updates[1], updates[3]};
  const auto senders = ids({0, 1, 3});
  const auto masked = mask_round(sa, sent, senders, participants);
  const ParamVec total = unmask(sa, masked, senders, participants, 2);
  EXPECT_EQ(total, fixed_point_sum(sa, sent));
  EXPECT_EQ(total, (ParamVec{1.0f + 2.0f + 4.0f, 1.0f - 1.0f + 9.0f}));
}

TEST(SecureAgg, MultipleDropouts) {
  const SecureAggregation sa(config(42));
  const auto participants = ids({0, 1, 2, 3, 4});
  std::vector<std::size_t> senders;
  std::vector<ParamVec> sent;
  for (std::size_t i = 0; i < 5; ++i) {
    if (i == 1 || i == 3) continue;
    sent.push_back({static_cast<float>(i) + 0.1f});
    senders.push_back(i);
  }
  const auto masked = mask_round(sa, sent, senders, participants);
  const ParamVec total = unmask(sa, masked, senders, participants, 1);
  EXPECT_EQ(total, fixed_point_sum(sa, sent));
}

TEST(SecureAgg, DifferentRoundKeysGiveDifferentMasks) {
  const SecureAggregation sa1(config(1)), sa2(config(2));
  const ParamVec u{1.0f, 2.0f};
  const auto p = ids({0, 1});
  EXPECT_NE(mask_round(sa1, {u}, ids({0}), p),
            mask_round(sa2, {u}, ids({0}), p));
}

TEST(SecureAgg, SelfMustBeParticipant) {
  // Every sender must be a participant, once, and no participant may be
  // listed twice (the pair loop would mask a client against itself).
  const SecureAggregation sa(config());
  const ParamVec u{1.0f};
  std::vector<MaskedVec> out;
  expect_rejected([&] { sa.mask({u}, ids({9}), ids({0, 1}), out); },
                  {"sender 9"});
  expect_rejected([&] { sa.mask({u, u}, ids({3, 3}), ids({3, 5}), out); },
                  {"sender 3"});
  expect_rejected(
      [&] { sa.mask({u, u}, ids({3, 5}), ids({3, 5, 3}), out); },
      {"participant 3"});
}

TEST(SecureAgg, UnmaskRejectsMalformedInput) {
  const SecureAggregation sa(config());
  const auto p = ids({0, 1});
  const auto m = mask_round(sa, {{1.0f}}, ids({0}), p)[0];
  MaskedVec total;
  EXPECT_THROW(sa.unmask_sum({m}, {0, 1}, p, 1, total), std::invalid_argument);
  EXPECT_THROW(sa.unmask_sum({}, {}, p, 1, total), std::invalid_argument);
  EXPECT_THROW(sa.unmask_sum({m}, {0}, p, 2, total), std::invalid_argument);
  // A sender listed twice or outside the participants would leave masks
  // uncancelled and a garbage sum; a repeated participant, a mask
  // against itself.
  const auto p35 = ids({3, 5});
  const auto masked = mask_round(sa, {{1.0f}, {2.0f}}, p35, p35);
  expect_rejected(
      [&] {
        sa.unmask_sum({masked[0], masked[0], masked[1]}, ids({3, 3, 5}), p35,
                      1, total);
      },
      {"sender 3"});
  expect_rejected([&] { sa.unmask_sum({masked[0]}, ids({7}), p35, 1, total); },
                  {"sender 7"});
  expect_rejected(
      [&] { sa.unmask_sum(masked, p35, ids({3, 5, 5}), 1, total); },
      {"participant 5"});
}

TEST(SecureAgg, SingleParticipantDegenerate) {
  // With one participant there are no pairwise masks; the "masked"
  // vector is the plain quantization and the sum is the value itself.
  const SecureAggregation sa(config());
  const ParamVec u{2.5f};
  const auto p = ids({4});
  const auto masked = mask_round(sa, {u}, p, p);
  const ParamVec total = unmask(sa, masked, p, p, 1);
  EXPECT_NEAR(total[0], 2.5f, 1e-6f);
}

TEST(SecureAgg, PairMaskKeystreamGolden) {
  // Pins the mask definition: word k of pair (a, b)'s mask is
  // Rng::split_mix(pair_seed(a, b) + k * Rng::kGoldenGamma). A zero
  // update masked by the lower id is exactly the pair's mask; the higher
  // id carries its negation — whether both endpoints send (one
  // keystream, two sides) or only one does. Changing the keystream must
  // be deliberate.
  const SecureAggregation sa(config(99));
  const auto p = ids({0, 1});
  const MaskedVec expected{0x953884b0e5678fb6ULL, 0x818765b2bf270f6eULL,
                           0x866b1a9537473232ULL, 0x09368d23b640cb2fULL,
                           0x2a186ac0ab0c7933ULL, 0x1324b84556f2b43eULL};
  const ParamVec zero(expected.size(), 0.0f);
  MaskedVec negated(expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    negated[k] = std::uint64_t{0} - expected[k];
  }
  const auto both = mask_round(sa, {zero, zero}, p, p);
  EXPECT_EQ(both[0], expected);
  EXPECT_EQ(both[1], negated);
  EXPECT_EQ(mask_round(sa, {zero}, ids({0}), p)[0], expected);
  EXPECT_EQ(mask_round(sa, {zero}, ids({1}), p)[0], negated);
}

TEST(SecureAgg, MaskUpdateRejectsValuesOutsideEncodeDomain) {
  // No fixed-point word exists for NaN, ±Inf or |x| * 2^24 >= 2^63: the
  // cast would be undefined, so masking throws and names the client and
  // the first bad index, at any lane position of the batched encode.
  const SecureAggregation sa(config());
  const auto p = ids({2, 5});
  const float two_pow_40 = std::ldexp(1.0f, 40);
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity(), two_pow_40,
                    -two_pow_40}) {
    for (std::size_t at : {0, 1, 7, 8, 18}) {
      SCOPED_TRACE(::testing::Message() << "value " << bad << " at " << at);
      ParamVec u(19, -0.25f);
      u[at] = bad;
      std::vector<MaskedVec> out;
      expect_rejected([&] { sa.mask({ParamVec(19, 0.5f), u}, p, p, out); },
                      {"client 5", "at index " + std::to_string(at)});
    }
    EXPECT_THROW(sa.encode(bad), std::invalid_argument);
  }
}

/// The masking definition, one client at a time: encode by std::round
/// (EncodeMatchesStdRoundReference pins encode to it), then for every
/// other participant add (lower id) or subtract (higher id) the pair's
/// keystream Rng::split_mix(seed + k * kGoldenGamma), with the pair seed
/// derived from the round key as the protocol defines it.
MaskedVec oracle_mask(const SecureAggConfig& c, const ParamVec& update,
                      std::size_t self,
                      const std::vector<std::size_t>& participants) {
  MaskedVec out(update.size());
  const double unit = std::ldexp(1.0, static_cast<int>(c.frac_bits));
  for (std::size_t k = 0; k < update.size(); ++k) {
    out[k] = static_cast<std::uint64_t>(static_cast<std::int64_t>(
        std::round(static_cast<double>(update[k]) * unit)));
  }
  for (std::size_t other : participants) {
    if (other == self) continue;
    const std::uint64_t lo = std::min(self, other), hi = std::max(self, other);
    std::uint64_t seed = Rng::split_mix(c.round_key ^ (lo + 1));
    seed = Rng::split_mix(seed ^ ((hi + 1) << 1));
    for (std::size_t k = 0; k < out.size(); ++k) {
      const std::uint64_t m = Rng::split_mix(seed + k * Rng::kGoldenGamma);
      out[k] = self < other ? out[k] + m : out[k] - m;
    }
  }
  return out;
}

TEST(SecureAgg, MaskEqualsPerClientOracle) {
  // The round call generates each pair's keystream once and applies it
  // to both endpoints; every masked vector must still be the bytes the
  // per-client definition gives, with all participants sending and with
  // some dropped (whose pairs mask one side only).
  for (std::size_t n : {1, 2, 3, 10, 17}) {
    for (bool dropouts : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n
                                        << " dropouts=" << dropouts);
      const SecureAggConfig c = config(n * 7919 + dropouts);
      const SecureAggregation sa(c);
      Rng rng(n + 100 * dropouts);
      // Ids out of order, so the lower/higher rule cannot lean on
      // participant positions.
      std::vector<std::size_t> participants(n);
      for (std::size_t i = 0; i < n; ++i) participants[i] = (i * 7 + 3) % 29;
      std::vector<std::size_t> senders;
      std::vector<ParamVec> updates;
      for (std::size_t i = 0; i < n; ++i) {
        if (dropouts && n > 1 && i % 3 == 1) continue;
        senders.push_back(participants[i]);
        ParamVec u(37);
        for (float& x : u) x = static_cast<float>(rng.normal());
        updates.push_back(std::move(u));
      }
      const auto masked = mask_round(sa, updates, senders, participants);
      ASSERT_EQ(masked.size(), senders.size());
      for (std::size_t k = 0; k < senders.size(); ++k) {
        EXPECT_EQ(masked[k],
                  oracle_mask(c, updates[k], senders[k], participants))
            << "sender " << senders[k];
      }
      EXPECT_EQ(unmask(sa, masked, senders, participants, 37),
                fixed_point_sum(sa, updates));
    }
  }
}

/// encode's contract at `frac_bits`: std::round (halves away from zero)
/// of x * 2^frac_bits inside |x * 2^frac_bits| < 2^63, a throw outside.
void expect_encode_matches_round(const SecureAggregation& sa,
                                 unsigned frac_bits, float x) {
  const double scaled =
      static_cast<double>(x) * std::ldexp(1.0, static_cast<int>(frac_bits));
  if (!(std::fabs(scaled) < std::ldexp(1.0, 63))) {
    EXPECT_THROW(sa.encode(x), std::invalid_argument)
        << "x=" << x << " bits=" << std::bit_cast<std::uint32_t>(x);
    return;
  }
  const auto reference = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(std::round(scaled)));
  ASSERT_EQ(sa.encode(x), reference)
      << "x=" << x << " bits=" << std::bit_cast<std::uint32_t>(x);
}

TEST(SecureAgg, EncodeMatchesStdRoundReference) {
  for (unsigned frac_bits : {1u, 24u, 40u}) {
    SCOPED_TRACE(::testing::Message() << "frac_bits=" << frac_bits);
    SecureAggConfig c = config();
    c.frac_bits = frac_bits;
    const SecureAggregation sa(c);
    // Strided sweep of every float bit pattern (both signs, denormals,
    // every exponent, NaN/Inf payloads). Only in-domain values are
    // encoded here; the out-of-domain throw is checked at the edges
    // below (an exception per pattern would cost seconds).
    const double unit = std::ldexp(1.0, static_cast<int>(frac_bits));
    constexpr std::uint64_t kStride = 4099;
    for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << 32);
         bits += kStride) {
      const float x = std::bit_cast<float>(static_cast<std::uint32_t>(bits));
      if (std::fabs(static_cast<double>(x) * unit) < std::ldexp(1.0, 63)) {
        expect_encode_matches_round(sa, frac_bits, x);
      }
    }
    // Ties round away from zero: (k + 0.5) / 2^frac_bits is exact.
    for (double k : {0.0, 1.0, 2.0, 3.0, 1000.0, 8388607.0}) {
      for (double sign : {1.0, -1.0}) {
        const auto x = static_cast<float>(sign * (k + 0.5) / unit);
        expect_encode_matches_round(sa, frac_bits, x);
        EXPECT_EQ(static_cast<std::int64_t>(sa.encode(x)),
                  static_cast<std::int64_t>(sign * (k + 1.0)));
      }
    }
    // Denormals, signed zeros and the largest value below 0.5.
    for (float x : {std::numeric_limits<float>::denorm_min(),
                    -std::numeric_limits<float>::denorm_min(),
                    std::nextafter(std::numeric_limits<float>::min(), 0.0f),
                    0.0f, -0.0f, std::nextafter(0.5f, 0.0f)}) {
      expect_encode_matches_round(sa, frac_bits, x);
    }
    // The 2^63 edge: 2^(63 - frac_bits) is the first value outside.
    const float edge = std::ldexp(1.0f, 63 - static_cast<int>(frac_bits));
    for (float x : {edge, -edge, std::nextafter(edge, 0.0f),
                    -std::nextafter(edge, 0.0f),
                    std::numeric_limits<float>::max(),
                    std::numeric_limits<float>::infinity(),
                    std::numeric_limits<float>::quiet_NaN()}) {
      expect_encode_matches_round(sa, frac_bits, x);
    }
    EXPECT_THROW(sa.encode(edge), std::invalid_argument);
    EXPECT_NO_THROW(sa.encode(std::nextafter(edge, 0.0f)));
  }
  // A unit of 2^64 or more has no 64-bit word (decode's shift would be
  // undefined), so such a scale is rejected up front.
  for (unsigned frac_bits : {64u, 65u}) {
    SecureAggConfig c = config();
    c.frac_bits = frac_bits;
    EXPECT_THROW(SecureAggregation{c}, std::invalid_argument);
  }
}

/// Property sweep: exact cancellation for many (n, dim, key) combos.
class SecureAggProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SecureAggProperty, MaskedSumEqualsPlainSum) {
  const auto [n, dim] = GetParam();
  const SecureAggregation sa(config(n * 1000 + dim));
  Rng rng(n * 31 + dim);
  std::vector<std::size_t> participants(n);
  for (std::size_t i = 0; i < n; ++i) participants[i] = i * 3 + 1;
  std::vector<ParamVec> updates(n, ParamVec(dim));
  for (auto& u : updates) {
    for (float& x : u) x = static_cast<float>(rng.uniform(-5.0, 5.0));
  }
  const auto masked = mask_round(sa, updates, participants, participants);
  const ParamVec total = unmask(sa, masked, participants, participants, dim);
  EXPECT_EQ(total, fixed_point_sum(sa, updates));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SecureAggProperty,
    ::testing::Combine(::testing::Values<std::size_t>(2, 3, 5, 10, 17),
                       ::testing::Values<std::size_t>(1, 8, 33)));

}  // namespace
}  // namespace baffle
