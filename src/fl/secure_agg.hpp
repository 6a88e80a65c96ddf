#pragma once
// Simulated secure aggregation (Bonawitz et al., CCS'17) via pairwise
// additive masking over fixed-point integers.
//
// Each pair of round participants (i, j) shares a seed; client i adds
// PRG(seed) to its (quantized) update when i < j and subtracts it when
// i > j, so all masks cancel in the sum and the server learns *only* the
// aggregate. Working in uint64 arithmetic (wrap-around group Z_2^64)
// makes the cancellation exact — a property the tests assert bit-for-bit.
//
// Keystream: the PRG is SplitMix64 in counter mode. Word k of pair
// (a, b)'s mask is Rng::split_mix(pair_seed(a, b) + k * kGoldenGamma),
// applied through the dispatched pair_keystream_u64 primitive
// (tensor/primitives.hpp), whose arms are bit-identical. The simulation
// masks a whole round in one call, so each pair's keystream is
// generated once and applied to both of its endpoints.
//
// Exact-cancellation invariant: for any participant set and any subset
// of surviving senders, unmask_sum returns decode_sum(Σ encode(u_i) mod
// 2^64) over the survivors' updates u_i, element by element — the masks
// contribute exactly zero. Mask values therefore never reach an output:
// candidate models, RoundRecords and wire bytes are independent of the
// PRG, which is why its choice is free to be the fastest one.
//
// Encoding domain: encode(x) = round(x * 2^frac_bits), rounding halves
// away from zero, for |x| * 2^frac_bits < 2^63. NaN, ±Inf and anything
// larger have no fixed-point word; encode and mask throw
// std::invalid_argument on them (mask names the client).
//
// Simulated vs. real protocol: key agreement and Shamir-shared seed
// recovery are replaced by deterministic per-pair seeds derived from a
// per-round key; dropout handling reconstructs the dropped clients'
// pairwise masks the way the real protocol does after seed recovery.
// The arithmetic — which is what the BaFFLe compatibility claim rests
// on — is faithful.

#include <cstdint>
#include <vector>

#include "fl/update.hpp"

namespace baffle {

struct SecureAggConfig {
  /// Fixed-point scale: floats are encoded as round(x * 2^frac_bits).
  unsigned frac_bits = 24;
  /// Per-round key from which pairwise seeds derive (stands in for the
  /// Diffie-Hellman agreement of the real protocol).
  std::uint64_t round_key = 0;
};

using MaskedVec = std::vector<std::uint64_t>;

class SecureAggregation {
 public:
  /// Throws std::invalid_argument when frac_bits is 64 or more: the
  /// fixed-point unit 2^frac_bits must fit the 64-bit word.
  explicit SecureAggregation(SecureAggConfig config);

  /// Client side, for a whole round: out[k] becomes senders[k]'s masked
  /// vector — encode(updates[k]) plus, for every other participant p,
  /// the pair mask of (senders[k], p), added when senders[k] < p and
  /// subtracted otherwise. Participants that did not send still mask
  /// the senders they share a pair with. Each pair's keystream is
  /// generated once. `out` is resized, so buffers kept across rounds are
  /// reused. Throws std::invalid_argument, naming the id, when a
  /// participant is listed twice or a sender is listed twice or is not
  /// a participant; naming the client when an update value lies outside
  /// encode's domain; and when the updates differ in length.
  void mask(const std::vector<ParamVec>& updates,
            const std::vector<std::size_t>& senders,
            const std::vector<std::size_t>& participants,
            std::vector<MaskedVec>& out) const;

  /// Server-side: sum the survivors' masked vectors, cancel the masks of
  /// dropped participants (ids in `participants` without a masked
  /// vector; the real protocol reconstructs their seeds from Shamir
  /// shares), and dequantize. `senders[k]` is the id that produced
  /// `masked[k]`. `total` holds the fixed-point sum; it is resized, so
  /// a buffer kept across rounds is reused. Throws std::invalid_argument
  /// on the ids `mask` rejects, naming the id, and on vectors that are
  /// missing or not `vec_len` long.
  ParamVec unmask_sum(const std::vector<MaskedVec>& masked,
                      const std::vector<std::size_t>& senders,
                      const std::vector<std::size_t>& participants,
                      std::size_t vec_len, MaskedVec& total) const;

  /// Exact quantization helpers (exposed for tests). encode throws
  /// std::invalid_argument outside its domain (see the file comment);
  /// decode_sum interprets the wrapped uint64 as a signed fixed-point
  /// sum.
  std::uint64_t encode(float x) const;
  float decode_sum(std::uint64_t total) const;

 private:
  std::uint64_t pair_seed(std::size_t a, std::size_t b) const;

  SecureAggConfig config_;
};

}  // namespace baffle
