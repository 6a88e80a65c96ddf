#include "fl/secure_agg.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>

#include "tensor/primitives.hpp"
#include "util/rng.hpp"

namespace baffle {

namespace {

/// 2^−frac_bits, the value of one fixed-point unit. Exact (frac_bits <
/// 64), so multiplying by it gives the bits dividing by 2^frac_bits does.
double fixed_point_step(unsigned frac_bits) {
  return std::ldexp(1.0, -static_cast<int>(frac_bits));
}

/// Decodes one wrapped fixed-point word.
float decode_word(std::uint64_t total, double step) {
  const auto as_signed = static_cast<std::int64_t>(total);
  return static_cast<float>(static_cast<double>(as_signed) * step);
}

/// A participant without a masked vector in sender_slots.
constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

/// slot[j] is the index k with senders[k] == participants[j], or kNoSlot
/// when participant j sent nothing. Throws std::invalid_argument naming
/// the id when a participant is listed twice (a pair loop would mask it
/// against itself), or a sender is listed twice or is not a participant
/// (its masks would not cancel).
std::vector<std::size_t> sender_slots(
    const std::string& where, const std::vector<std::size_t>& senders,
    const std::vector<std::size_t>& participants) {
  for (auto it = participants.begin(); it != participants.end(); ++it) {
    if (std::find(participants.begin(), it, *it) != it) {
      throw std::invalid_argument(where + ": participant " +
                                  std::to_string(*it) + " is listed twice");
    }
  }
  std::vector<std::size_t> slot(participants.size(), kNoSlot);
  for (std::size_t k = 0; k < senders.size(); ++k) {
    const auto it =
        std::find(participants.begin(), participants.end(), senders[k]);
    if (it == participants.end()) {
      throw std::invalid_argument(where + ": sender " +
                                  std::to_string(senders[k]) +
                                  " is not a participant");
    }
    std::size_t& s = slot[static_cast<std::size_t>(it - participants.begin())];
    if (s != kNoSlot) {
      throw std::invalid_argument(where + ": sender " +
                                  std::to_string(senders[k]) +
                                  " is listed twice");
    }
    s = k;
  }
  return slot;
}

}  // namespace

SecureAggregation::SecureAggregation(SecureAggConfig config)
    : config_(config) {
  if (config_.frac_bits >= 64) {
    throw std::invalid_argument(
        "SecureAggregation: frac_bits must be below 64");
  }
}

std::uint64_t SecureAggregation::encode(float x) const {
  std::uint64_t word = 0;
  if (encode_fixed_u64({&x, 1}, config_.frac_bits, {&word, 1}) == 0) {
    throw std::invalid_argument(
        "encode: value is non-finite or outside the fixed-point range");
  }
  return word;
}

float SecureAggregation::decode_sum(std::uint64_t total) const {
  return decode_word(total, fixed_point_step(config_.frac_bits));
}

std::uint64_t SecureAggregation::pair_seed(std::size_t a,
                                           std::size_t b) const {
  const std::size_t lo = std::min(a, b), hi = std::max(a, b);
  std::uint64_t s = config_.round_key;
  s = Rng::split_mix(s ^ (static_cast<std::uint64_t>(lo) + 1));
  s = Rng::split_mix(s ^ (static_cast<std::uint64_t>(hi) + 1) << 1);
  return s;
}

void SecureAggregation::mask(const std::vector<ParamVec>& updates,
                             const std::vector<std::size_t>& senders,
                             const std::vector<std::size_t>& participants,
                             std::vector<MaskedVec>& out) const {
  if (updates.size() != senders.size()) {
    throw std::invalid_argument("mask: senders/updates mismatch");
  }
  const std::vector<std::size_t> slot =
      sender_slots("mask", senders, participants);
  const std::size_t n = updates.empty() ? 0 : updates.front().size();
  out.resize(updates.size());
  for (std::size_t k = 0; k < updates.size(); ++k) {
    if (updates[k].size() != n) {
      throw std::invalid_argument("mask: update length mismatch");
    }
    out[k].resize(n);
    const std::size_t bad =
        encode_fixed_u64(updates[k], config_.frac_bits, out[k]);
    if (bad != n) {
      throw std::invalid_argument(
          "mask: update of client " + std::to_string(senders[k]) +
          " holds a non-finite or out-of-range value at index " +
          std::to_string(bad));
    }
  }
  for (std::size_t a = 0; a < participants.size(); ++a) {
    for (std::size_t b = a + 1; b < participants.size(); ++b) {
      // The lower id adds the pair's mask and the higher id subtracts
      // it, so it cancels in the sum; an endpoint that sent nothing
      // has no vector to mask.
      const bool a_lower = participants[a] < participants[b];
      const std::size_t plus = a_lower ? slot[a] : slot[b];
      const std::size_t minus = a_lower ? slot[b] : slot[a];
      if (plus == kNoSlot && minus == kNoSlot) continue;
      pair_keystream_u64(plus == kNoSlot ? nullptr : out[plus].data(),
                         minus == kNoSlot ? nullptr : out[minus].data(),
                         pair_seed(participants[a], participants[b]), n);
    }
  }
}

ParamVec SecureAggregation::unmask_sum(
    const std::vector<MaskedVec>& masked,
    const std::vector<std::size_t>& senders,
    const std::vector<std::size_t>& participants, std::size_t vec_len,
    MaskedVec& total) const {
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
  const std::vector<std::size_t> slot =
      sender_slots("unmask_sum", senders, participants);
  // One pass over the words: each block of the total takes every
  // sender's block while it sits in L1.
  total.resize(vec_len);
  constexpr std::size_t kBlock = 512;
  for (std::size_t i0 = 0; i0 < vec_len; i0 += kBlock) {
    const std::size_t width = std::min(kBlock, vec_len - i0);
    const std::span<std::uint64_t> sums(total.data() + i0, width);
    std::copy_n(masked.front().data() + i0, width, sums.data());
    for (std::size_t k = 1; k < masked.size(); ++k) {
      add_u64(sums, {masked[k].data() + i0, width});
    }
  }
  // Cancel the masks survivors applied against dropped participants: in
  // the real protocol the server recovers these seeds from the Shamir
  // shares held by surviving clients.
  for (std::size_t j = 0; j < participants.size(); ++j) {
    if (slot[j] != kNoSlot) continue;
    const std::size_t dropped = participants[j];
    for (std::size_t survivor : senders) {
      // The survivor added the pair's mask if survivor < dropped and
      // subtracted it otherwise; undo that.
      const bool added = survivor < dropped;
      pair_keystream_u64(added ? nullptr : total.data(),
                         added ? total.data() : nullptr,
                         pair_seed(survivor, dropped), vec_len);
    }
  }
  const double step = fixed_point_step(config_.frac_bits);
  ParamVec out(vec_len);
  for (std::size_t i = 0; i < vec_len; ++i) {
    out[i] = decode_word(total[i], step);
  }
  return out;
}

}  // namespace baffle
