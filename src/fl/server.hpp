#pragma once
// FL server: owns the global model and runs the training side of each
// round. Accept/reject of the proposed model is *not* decided here —
// that is BaFFLe's feedback loop (src/core) — so the server exposes a
// propose/commit/discard protocol.

#include <memory>
#include <optional>

#include "fl/aggregator.hpp"
#include "fl/client.hpp"
#include "fl/sampler.hpp"
#include "fl/secure_agg.hpp"
#include "nn/mlp.hpp"

namespace baffle {

struct FlConfig {
  std::size_t total_clients = 100;   // N
  std::size_t clients_per_round = 10;  // n
  double global_lr = 10.0;           // λ; λ = N/n replaces G by the mean L_i
  TrainConfig local_train;           // 2 epochs, lr 0.1 by default
  bool secure_aggregation = true;
  unsigned secure_agg_frac_bits = 24;
};

/// Validates an FlConfig (contributor counts, learning rate, secure-agg
/// precision). Throws ContractViolation on a bad config; also run by
/// the FlServer constructor.
void validate_fl_config(const FlConfig& config);

/// Snapshot of a committed global model, used by the defense history.
struct GlobalModel {
  std::uint64_t version = 0;
  ParamVec params;
};

class FlServer {
 public:
  FlServer(MlpConfig arch, FlConfig config, std::uint64_t seed);

  const FlConfig& config() const { return config_; }
  const MlpConfig& arch() const { return arch_; }

  /// Current committed global model (G^{r-1} at the start of round r).
  Mlp& global_model() { return global_; }
  const Mlp& global_model() const { return global_; }
  std::uint64_t version() const { return version_; }

  /// Result of the training phase of one round.
  struct Proposal {
    ParamVec candidate_params;          // G + (λ/N) Σ U_i
    std::vector<std::size_t> contributors;
    std::size_t round = 0;
  };

  /// Samples n contributors, collects their updates through `provider`,
  /// aggregates (through secure aggregation when enabled) and returns
  /// the candidate model parameters. Does not modify the global model.
  /// The updates fan out on ThreadPool::global(); per-client Rngs are
  /// pre-forked in contributor order, so the result is bit-identical at
  /// every pool size.
  Proposal propose_round(UpdateProvider& provider, Rng& round_rng);

  /// As propose_round but with caller-chosen contributors (tests,
  /// attack-schedule control).
  Proposal propose_round_with(const std::vector<std::size_t>& contributors,
                              UpdateProvider& provider, Rng& round_rng);

  /// Aggregation half of propose_round_with: combines already-collected
  /// updates (aligned index-for-index with `contributors`) into the
  /// round's candidate, through secure aggregation when enabled. The
  /// transport-backed round server (src/net) collects updates over
  /// channels and feeds them here, so both paths aggregate through one
  /// code path — bit-identically.
  Proposal aggregate_updates(std::vector<ParamVec> updates,
                             const std::vector<std::size_t>& contributors);

  /// Installs the candidate as the new global model G^r; returns the
  /// version assigned to it (feeds BaffleDefense::on_commit).
  std::uint64_t commit(const Proposal& proposal);

  /// Rejects the candidate: the global model stays G^{r-1}; the round
  /// counter still advances (the paper restarts the round with the old
  /// model).
  void discard(const Proposal& proposal);

  std::size_t current_round() const { return round_; }

 private:
  ParamVec aggregate_secure(const std::vector<ParamVec>& updates,
                            const std::vector<std::size_t>& contributors);

  MlpConfig arch_;
  FlConfig config_;
  Mlp global_;
  FedAvgAggregator aggregator_;
  std::uint64_t version_ = 0;
  std::size_t round_ = 0;
  std::uint64_t secure_agg_key_base_;
  // Secure-aggregation scratch, reused across rounds: the masked
  // vectors and their fixed-point sum.
  std::vector<MaskedVec> masked_;
  MaskedVec masked_total_;
};

}  // namespace baffle
