#include "fl/secure_agg.hpp"

#include <gtest/gtest.h>

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
  const auto ma = sa.mask_update(a, 3, participants);
  const auto mb = sa.mask_update(b, 7, participants);
  const ParamVec total = sa.unmask_sum({ma, mb}, participants, participants, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(total[i], a[i] + b[i], 1e-5f);
  }
}

TEST(SecureAgg, MasksAreLarge) {
  // A masked vector must look nothing like the plaintext encoding: for a
  // zero update the mask should dominate.
  const SecureAggregation sa(config());
  const ParamVec zero(8, 0.0f);
  const auto masked = sa.mask_update(zero, 0, ids({0, 1}));
  std::size_t nonzero = 0;
  for (auto v : masked) {
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
  std::vector<MaskedVec> masked;
  for (std::size_t i = 0; i < n; ++i) {
    masked.push_back(sa.mask_update(updates[i], participants[i], participants));
  }
  const ParamVec total = sa.unmask_sum(masked, participants, participants, dim);
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
  std::vector<MaskedVec> masked;
  std::vector<std::size_t> senders;
  for (std::size_t i = 0; i < 4; ++i) {
    if (i == 2) continue;  // client 2 drops after key agreement
    masked.push_back(sa.mask_update(updates[i], i, participants));
    senders.push_back(i);
  }
  const ParamVec total = sa.unmask_sum(masked, senders, participants, 2);
  EXPECT_EQ(total, fixed_point_sum(sa, {updates[0], updates[1], updates[3]}));
  EXPECT_EQ(total, (ParamVec{1.0f + 2.0f + 4.0f, 1.0f - 1.0f + 9.0f}));
}

TEST(SecureAgg, MultipleDropouts) {
  const SecureAggregation sa(config(42));
  const auto participants = ids({0, 1, 2, 3, 4});
  std::vector<MaskedVec> masked;
  std::vector<std::size_t> senders;
  std::vector<ParamVec> sent;
  for (std::size_t i = 0; i < 5; ++i) {
    if (i == 1 || i == 3) continue;
    sent.push_back({static_cast<float>(i) + 0.1f});
    masked.push_back(sa.mask_update(sent.back(), i, participants));
    senders.push_back(i);
  }
  const ParamVec total = sa.unmask_sum(masked, senders, participants, 1);
  EXPECT_EQ(total, fixed_point_sum(sa, sent));
}

TEST(SecureAgg, DifferentRoundKeysGiveDifferentMasks) {
  const SecureAggregation sa1(config(1)), sa2(config(2));
  const ParamVec u{1.0f, 2.0f};
  const auto p = ids({0, 1});
  EXPECT_NE(sa1.mask_update(u, 0, p), sa2.mask_update(u, 0, p));
}

TEST(SecureAgg, SelfMustBeParticipant) {
  const SecureAggregation sa(config());
  const ParamVec u{1.0f};
  EXPECT_THROW(sa.mask_update(u, 9, ids({0, 1})), std::invalid_argument);
}

TEST(SecureAgg, UnmaskRejectsMalformedInput) {
  const SecureAggregation sa(config());
  const auto p = ids({0, 1});
  const auto m = sa.mask_update({1.0f}, 0, p);
  EXPECT_THROW(sa.unmask_sum({m}, {0, 1}, p, 1), std::invalid_argument);
  EXPECT_THROW(sa.unmask_sum({}, {}, p, 1), std::invalid_argument);
  EXPECT_THROW(sa.unmask_sum({m}, {0}, p, 2), std::invalid_argument);
}

TEST(SecureAgg, SingleParticipantDegenerate) {
  // With one participant there are no pairwise masks; the "masked"
  // vector is the plain quantization and the sum is the value itself.
  const SecureAggregation sa(config());
  const ParamVec u{2.5f};
  const auto p = ids({4});
  const auto m = sa.mask_update(u, 4, p);
  const ParamVec total = sa.unmask_sum({m}, {4}, p, 1);
  EXPECT_NEAR(total[0], 2.5f, 1e-6f);
}

TEST(SecureAgg, PairMaskKeystreamGolden) {
  // Pins the mask definition: word k of pair (a, b)'s mask is
  // Rng::split_mix(pair_seed(a, b) + k * Rng::kGoldenGamma). A zero
  // update masked by the lower id is exactly the pair's mask; the higher
  // id carries its negation. Changing the keystream must be deliberate.
  const SecureAggregation sa(config(99));
  const auto p = ids({0, 1});
  const MaskedVec expected{0x953884b0e5678fb6ULL, 0x818765b2bf270f6eULL,
                           0x866b1a9537473232ULL, 0x09368d23b640cb2fULL,
                           0x2a186ac0ab0c7933ULL, 0x1324b84556f2b43eULL};
  const ParamVec zero(expected.size(), 0.0f);
  EXPECT_EQ(sa.mask_update(zero, 0, p), expected);
  const MaskedVec negated = sa.mask_update(zero, 1, p);
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(negated[k], std::uint64_t{0} - expected[k]) << "word " << k;
  }
}

TEST(SecureAgg, MaskUpdateRejectsValuesOutsideEncodeDomain) {
  // No fixed-point word exists for NaN, ±Inf or |x| * 2^24 >= 2^63: the
  // cast would be undefined, so masking throws and names the client.
  const SecureAggregation sa(config());
  const auto p = ids({2, 5});
  const float two_pow_40 = std::ldexp(1.0f, 40);
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity(), two_pow_40,
                    -two_pow_40}) {
    SCOPED_TRACE(::testing::Message() << "value " << bad);
    const ParamVec u{0.5f, bad, -0.25f};
    try {
      (void)sa.mask_update(u, 5, p);
      ADD_FAILURE() << "mask_update accepted an unencodable value";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("client 5"), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(sa.encode(bad), std::invalid_argument);
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
  std::vector<MaskedVec> masked;
  for (std::size_t i = 0; i < n; ++i) {
    masked.push_back(
        sa.mask_update(updates[i], participants[i], participants));
  }
  const ParamVec total =
      sa.unmask_sum(masked, participants, participants, dim);
  EXPECT_EQ(total, fixed_point_sum(sa, updates));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SecureAggProperty,
    ::testing::Combine(::testing::Values<std::size_t>(2, 3, 5, 10, 17),
                       ::testing::Values<std::size_t>(1, 8, 33)));

}  // namespace
}  // namespace baffle
