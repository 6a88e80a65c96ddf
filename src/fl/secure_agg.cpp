#include "fl/secure_agg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "tensor/primitives.hpp"
#include "util/rng.hpp"

namespace baffle {

namespace {

/// 2^63: encode's domain is |x * 2^frac_bits| < 2^63 (NaN fails the
/// comparison, so it is outside too).
constexpr double kEncodeLimit = 9223372036854775808.0;

bool in_encode_domain(double scaled) {
  return std::fabs(scaled) < kEncodeLimit;
}

/// std::round's half-away-from-zero result without the libm call.
/// `scaled` is a float times a power of two, so it carries at most 24
/// significant bits. For 0.5 <= |scaled| < 2^52 the sum scaled ± 0.5 is
/// exact; below 0.5 it stays strictly inside (-1, 1); from 2^52 up,
/// `scaled` is an even integer and the sum rounds back to it. Truncation
/// toward zero therefore yields round(scaled). Callers check
/// in_encode_domain first.
std::uint64_t round_to_word(double scaled) {
  return static_cast<std::uint64_t>(
      static_cast<std::int64_t>(scaled + std::copysign(0.5, scaled)));
}

/// 2^frac_bits, the fixed-point unit.
double fixed_point_unit(unsigned frac_bits) {
  return static_cast<double>(std::uint64_t{1} << frac_bits);
}

}  // namespace

std::uint64_t SecureAggregation::encode(float x) const {
  const double scaled =
      static_cast<double>(x) * fixed_point_unit(config_.frac_bits);
  if (!in_encode_domain(scaled)) {
    throw std::invalid_argument(
        "encode: value is non-finite or outside the fixed-point range");
  }
  return round_to_word(scaled);
}

float SecureAggregation::decode_sum(std::uint64_t total) const {
  const auto as_signed = static_cast<std::int64_t>(total);
  return static_cast<float>(static_cast<double>(as_signed) /
                            fixed_point_unit(config_.frac_bits));
}

std::uint64_t SecureAggregation::pair_seed(std::size_t a,
                                           std::size_t b) const {
  const std::size_t lo = std::min(a, b), hi = std::max(a, b);
  std::uint64_t s = config_.round_key;
  s = Rng::split_mix(s ^ (static_cast<std::uint64_t>(lo) + 1));
  s = Rng::split_mix(s ^ (static_cast<std::uint64_t>(hi) + 1) << 1);
  return s;
}

MaskedVec SecureAggregation::mask_update(
    const ParamVec& update, std::size_t self_id,
    const std::vector<std::size_t>& participants) const {
  if (std::find(participants.begin(), participants.end(), self_id) ==
      participants.end()) {
    throw std::invalid_argument("mask_update: self not in participants");
  }
  MaskedVec out(update.size());
  const double unit = fixed_point_unit(config_.frac_bits);
  for (std::size_t i = 0; i < update.size(); ++i) {
    const double scaled = static_cast<double>(update[i]) * unit;
    if (!in_encode_domain(scaled)) {
      throw std::invalid_argument(
          "mask_update: update of client " + std::to_string(self_id) +
          " holds a non-finite or out-of-range value at index " +
          std::to_string(i));
    }
    out[i] = round_to_word(scaled);
  }
  for (std::size_t other : participants) {
    if (other == self_id) continue;
    // The lower id adds, the higher id subtracts — so each pair's mask
    // cancels in the sum.
    add_keystream_u64(out, pair_seed(self_id, other),
                      /*subtract=*/self_id > other);
  }
  return out;
}

ParamVec SecureAggregation::unmask_sum(
    const std::vector<MaskedVec>& masked,
    const std::vector<std::size_t>& senders,
    const std::vector<std::size_t>& participants, std::size_t vec_len) const {
  if (masked.size() != senders.size()) {
    throw std::invalid_argument("unmask_sum: senders/masked mismatch");
  }
  if (masked.empty()) {
    throw std::invalid_argument("unmask_sum: no masked updates");
  }
  for (const auto& m : masked) {
    if (m.size() != vec_len) {
      throw std::invalid_argument("unmask_sum: vector length mismatch");
    }
  }
  MaskedVec total(vec_len, 0);
  for (const auto& m : masked) add_u64(total, m);
  // Cancel the masks survivors applied against dropped participants: in
  // the real protocol the server recovers these seeds from the Shamir
  // shares held by surviving clients.
  for (std::size_t dropped : participants) {
    if (std::find(senders.begin(), senders.end(), dropped) != senders.end()) {
      continue;
    }
    for (std::size_t survivor : senders) {
      // The survivor applied +mask if survivor < dropped else -mask;
      // undo it.
      add_keystream_u64(total, pair_seed(survivor, dropped),
                        /*subtract=*/survivor < dropped);
    }
  }
  ParamVec out(vec_len);
  for (std::size_t i = 0; i < vec_len; ++i) out[i] = decode_sum(total[i]);
  return out;
}

}  // namespace baffle
