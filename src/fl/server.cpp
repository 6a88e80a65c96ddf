#include "fl/server.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"
#include "util/contracts.hpp"
#include "util/thread_pool.hpp"

namespace baffle {

void validate_fl_config(const FlConfig& config) {
  BAFFLE_CHECK(config.total_clients > 0, "FL needs at least one client");
  BAFFLE_CHECK(config.clients_per_round > 0,
               "every round needs at least one contributor");
  BAFFLE_CHECK(config.clients_per_round <= config.total_clients,
               "cannot sample more contributors than clients exist");
  BAFFLE_CHECK(config.global_lr > 0.0,
               "global learning rate must be positive");
  BAFFLE_CHECK(!config.secure_aggregation ||
                   (config.secure_agg_frac_bits > 0 &&
                    config.secure_agg_frac_bits < 64),
               "secure-agg fixed-point precision must fit a 64-bit word");
}

FlServer::FlServer(MlpConfig arch, FlConfig config, std::uint64_t seed)
    : arch_(std::move(arch)),
      config_(config),
      global_(arch_),
      aggregator_(config.global_lr, config.total_clients),
      secure_agg_key_base_(Rng::split_mix(seed)) {
  validate_fl_config(config);
  Rng init_rng(seed);
  global_.init(init_rng);
}

FlServer::Proposal FlServer::propose_round(UpdateProvider& provider,
                                           Rng& round_rng) {
  const ClientSampler sampler(config_.total_clients,
                              config_.clients_per_round);
  return propose_round_with(sampler.sample_round(round_rng), provider,
                            round_rng);
}

FlServer::Proposal FlServer::propose_round_with(
    const std::vector<std::size_t>& contributors, UpdateProvider& provider,
    Rng& round_rng) {
  if (contributors.empty()) {
    throw std::invalid_argument("propose_round: no contributors");
  }
  // Pre-fork one Rng per contributor serially, in contributor order —
  // the per-client streams are then identical at every pool size
  // (one worker runs the loop inline), so scheduling order cannot
  // change the result (bit-for-bit).
  std::vector<Rng> client_rngs;
  client_rngs.reserve(contributors.size());
  for (std::size_t i = 0; i < contributors.size(); ++i) {
    client_rngs.push_back(round_rng.fork());
  }
  std::vector<ParamVec> updates(contributors.size());
  const auto compute_one = [&](std::size_t i) {
    updates[i] = provider.update_for(contributors[i], global_, client_rngs[i]);
  };
  ThreadPool::global().parallel_for(contributors.size(), compute_one);
  return aggregate_updates(std::move(updates), contributors);
}

FlServer::Proposal FlServer::aggregate_updates(
    std::vector<ParamVec> updates,
    const std::vector<std::size_t>& contributors) {
  if (contributors.empty()) {
    throw std::invalid_argument("aggregate_updates: no contributors");
  }
  if (updates.size() != contributors.size()) {
    throw std::invalid_argument(
        "aggregate_updates: one update per contributor");
  }
  check_update_sizes(updates, global_.num_params());

  ParamVec delta;
  if (config_.secure_aggregation) {
    // The server only ever sees the (unmasked) *sum*; scale it per the
    // FedAvg rule afterwards.
    ParamVec total = aggregate_secure(updates, contributors);
    scale(total, static_cast<float>(config_.global_lr /
                                    static_cast<double>(
                                        config_.total_clients)));
    delta = std::move(total);
  } else {
    delta = aggregator_.aggregate(updates);
  }

  Proposal proposal;
  proposal.candidate_params = ::baffle::add(global_.parameters(), delta);
  proposal.contributors = contributors;
  proposal.round = round_ + 1;
  return proposal;
}

ParamVec FlServer::aggregate_secure(
    const std::vector<ParamVec>& updates,
    const std::vector<std::size_t>& contributors) {
  SecureAggConfig sa_config;
  sa_config.frac_bits = config_.secure_agg_frac_bits;
  sa_config.round_key =
      Rng::split_mix(secure_agg_key_base_ ^ (round_ + 1));
  const SecureAggregation secure(sa_config);
  // One serial pass on the calling thread: each contributor pair's
  // keystream is generated once, into buffers kept across rounds.
  secure.mask(updates, contributors, contributors, masked_);
  return secure.unmask_sum(masked_, contributors, contributors,
                           global_.num_params(), masked_total_);
}

std::uint64_t FlServer::commit(const Proposal& proposal) {
  if (proposal.round != round_ + 1) {
    throw std::logic_error("FlServer::commit: stale proposal");
  }
  global_.set_parameters(proposal.candidate_params);
  ++version_;
  ++round_;
  return version_;
}

void FlServer::discard(const Proposal& proposal) {
  if (proposal.round != round_ + 1) {
    throw std::logic_error("FlServer::discard: stale proposal");
  }
  ++round_;
}

}  // namespace baffle
