// Secure aggregation walk-through: pairwise masking, exact cancellation
// in Z_2^64 fixed-point arithmetic, dropout recovery, and the property
// BaFFLe is built around — the server learns the SUM of the updates and
// nothing about any individual one.
//
// Exits 1 when a recovered sum (all clients, or after the dropout)
// differs from decode_sum(Σ encode(u_i)), the exact value the masks must
// leave; ctest runs it.

#include <cstdio>

#include "fl/secure_agg.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace baffle;

/// decode_sum(Σ encode(u_i) mod 2^64), element by element: what
/// unmask_sum must recover from the masked updates.
ParamVec fixed_point_sum(const SecureAggregation& secure,
                         const std::vector<ParamVec>& updates) {
  ParamVec out(updates.front().size());
  for (std::size_t j = 0; j < out.size(); ++j) {
    std::uint64_t total = 0;
    for (const auto& u : updates) total += secure.encode(u[j]);
    out[j] = secure.decode_sum(total);
  }
  return out;
}

/// Prints `got` next to the plain float sum and reports whether `got`
/// is the exact fixed-point sum.
bool report(const char* what, const ParamVec& got, const ParamVec& exact,
            const ParamVec& plain) {
  std::printf("%s vs true sum:\n", what);
  for (std::size_t j = 0; j < got.size(); ++j) {
    std::printf("  [% .6f] vs [% .6f]  (|diff| = %.2e)\n", got[j], plain[j],
                std::abs(got[j] - plain[j]));
  }
  if (got != exact) {
    std::printf("FAIL: %s is not decode_sum(sum of encode(u_i))\n", what);
    return false;
  }
  return true;
}

}  // namespace

int main() {

  SecureAggConfig cfg;
  cfg.round_key = 0xC0FFEE;  // per-round key (DH agreement in the real protocol)
  const SecureAggregation secure(cfg);

  // Five clients, tiny 4-dimensional "updates" for readability.
  const std::vector<std::size_t> participants{10, 11, 12, 13, 14};
  Rng rng(5);
  std::vector<ParamVec> updates;
  for (std::size_t i = 0; i < participants.size(); ++i) {
    ParamVec u(4);
    for (float& x : u) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    updates.push_back(std::move(u));
  }

  std::printf("client updates (private, never sent in the clear):\n");
  for (std::size_t i = 0; i < updates.size(); ++i) {
    std::printf("  client %zu: [% .4f % .4f % .4f % .4f]\n",
                participants[i], updates[i][0], updates[i][1],
                updates[i][2], updates[i][3]);
  }

  // Client side: each masks its quantized update with pairwise PRG
  // masks. The simulation masks the whole round in one call, generating
  // each pair's keystream once for both of its clients.
  std::vector<MaskedVec> masked;
  secure.mask(updates, participants, participants, masked);
  std::printf("\nwhat the server receives (masked, looks uniform):\n");
  for (std::size_t i = 0; i < masked.size(); ++i) {
    std::printf("  client %zu: [%016llx %016llx ...]\n", participants[i],
                static_cast<unsigned long long>(masked[i][0]),
                static_cast<unsigned long long>(masked[i][1]));
  }

  // Server side: sum the masked vectors; all pairwise masks cancel.
  MaskedVec scratch;
  const ParamVec total =
      secure.unmask_sum(masked, participants, participants, 4, scratch);
  std::printf("\n");
  bool ok = report("unmasked sum", total, fixed_point_sum(secure, updates),
                   sum_updates(updates));

  // Dropout: client 12 sends nothing; the server reconstructs its
  // pairwise masks (Shamir-share recovery in the real protocol) and the
  // surviving four updates still sum exactly.
  std::printf("\n--- dropout: client 12 never responds ---\n");
  std::vector<MaskedVec> survived;
  std::vector<ParamVec> survivor_updates;
  std::vector<std::size_t> senders;
  for (std::size_t i = 0; i < participants.size(); ++i) {
    if (participants[i] == 12) continue;
    survived.push_back(masked[i]);
    survivor_updates.push_back(updates[i]);
    senders.push_back(participants[i]);
  }
  const ParamVec recovered =
      secure.unmask_sum(survived, senders, participants, 4, scratch);
  ok = report("recovered sum", recovered,
              fixed_point_sum(secure, survivor_updates),
              sum_updates(survivor_updates)) &&
       ok;

  std::printf("\nBaFFLe's compatibility claim rests on this: the defense\n"
              "only ever inspects the aggregated global model, so masking\n"
              "individual updates costs it nothing — unlike Krum, median,\n"
              "FoolsGold, and the other update-inspection defenses.\n");
  return ok ? 0 : 1;
}
