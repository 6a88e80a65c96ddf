#include "fl/server.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>

#include "metrics/confusion.hpp"
#include "tensor/ops.hpp"

namespace baffle {
namespace {

MlpConfig arch() { return MlpConfig{{2, 4, 2}}; }

FlConfig fl_config(bool secure = false) {
  FlConfig cfg;
  cfg.total_clients = 20;
  cfg.clients_per_round = 4;
  cfg.global_lr = 5.0;  // λ = N/n -> full replacement
  cfg.secure_aggregation = secure;
  return cfg;
}

std::vector<FlClient> make_clients(std::size_t n) {
  std::vector<FlClient> clients;
  Rng rng(11);
  for (std::size_t i = 0; i < n; ++i) {
    Dataset d(2, 2);
    for (int k = 0; k < 20; ++k) {
      const int y = k % 2;
      d.add(std::array{static_cast<float>(rng.normal(y ? 2 : -2, 0.4)),
                       static_cast<float>(rng.normal())},
            y);
    }
    clients.emplace_back(i, std::move(d));
  }
  return clients;
}

/// Provider returning fixed updates, for arithmetic checks.
class FixedProvider final : public UpdateProvider {
 public:
  explicit FixedProvider(ParamVec value) : value_(std::move(value)) {}
  ParamVec update_for(std::size_t, const Mlp&, Rng&) override {
    return value_;
  }

 private:
  ParamVec value_;
};

TEST(FlServer, RejectsBadConfig) {
  FlConfig bad = fl_config();
  bad.clients_per_round = 0;
  EXPECT_THROW(FlServer(arch(), bad, 1), std::invalid_argument);
  bad = fl_config();
  bad.clients_per_round = bad.total_clients + 1;
  EXPECT_THROW(FlServer(arch(), bad, 1), std::invalid_argument);
}

TEST(FlServer, ProposalAppliesFedAvgRule) {
  FlServer server(arch(), fl_config(), 1);
  const ParamVec unit(server.global_model().num_params(), 1.0f);
  FixedProvider provider(unit);
  Rng rng(2);
  const auto proposal =
      server.propose_round_with({0, 1, 2, 3}, provider, rng);
  // delta = (λ/N) Σ U = (5/20)*4*1 = 1 per coordinate.
  const auto g = server.global_model().parameters();
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_NEAR(proposal.candidate_params[i], g[i] + 1.0f, 1e-5f);
  }
}

TEST(FlServer, SecureAndPlainAggregationAgree) {
  FlServer plain(arch(), fl_config(false), 3);
  FlServer secure(arch(), fl_config(true), 3);
  // Same seed -> same initial model.
  EXPECT_EQ(plain.global_model().parameters(),
            secure.global_model().parameters());
  auto clients = make_clients(20);
  HonestUpdateProvider p1(&clients, TrainConfig{});
  HonestUpdateProvider p2(&clients, TrainConfig{});
  Rng rng1(9), rng2(9);
  const auto prop_plain = plain.propose_round_with({1, 5, 9, 13}, p1, rng1);
  const auto prop_secure = secure.propose_round_with({1, 5, 9, 13}, p2, rng2);
  ASSERT_EQ(prop_plain.candidate_params.size(),
            prop_secure.candidate_params.size());
  for (std::size_t i = 0; i < prop_plain.candidate_params.size(); ++i) {
    EXPECT_NEAR(prop_plain.candidate_params[i],
                prop_secure.candidate_params[i], 1e-4f);
  }
}

TEST(FlServer, SecureAggregateEqualsFixedPointSumBitForBit) {
  // Under secure aggregation the candidate is global + scale(decode(Σ
  // encode(U_i))): the pairwise masks contribute exactly nothing, so the
  // candidate can be recomputed here, bit for bit, without them.
  FlServer server(arch(), fl_config(true), 4);
  const std::vector<std::size_t> contributors{3, 7, 11, 19};
  const std::size_t p = server.global_model().num_params();
  Rng rng(9);
  std::vector<ParamVec> updates(contributors.size(), ParamVec(p));
  for (auto& u : updates) {
    for (float& x : u) x = static_cast<float>(rng.normal(0.0, 0.3));
  }

  SecureAggConfig sa_config;  // encode/decode do not depend on the key
  sa_config.frac_bits = server.config().secure_agg_frac_bits;
  const SecureAggregation codec(sa_config);
  ParamVec delta(p);
  for (std::size_t k = 0; k < p; ++k) {
    std::uint64_t total = 0;
    for (const auto& u : updates) total += codec.encode(u[k]);
    delta[k] = codec.decode_sum(total);
  }
  const FlConfig& cfg = server.config();
  scale(delta, static_cast<float>(
                   cfg.global_lr / static_cast<double>(cfg.total_clients)));
  const ParamVec expected = add(server.global_model().parameters(), delta);

  const auto proposal = server.aggregate_updates(updates, contributors);
  ASSERT_EQ(proposal.candidate_params.size(), expected.size());
  for (std::size_t k = 0; k < p; ++k) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(proposal.candidate_params[k]),
              std::bit_cast<std::uint32_t>(expected[k]))
        << "param " << k;
  }
}

TEST(FlServer, CommitInstallsCandidate) {
  FlServer server(arch(), fl_config(), 4);
  FixedProvider provider(ParamVec(server.global_model().num_params(), 0.5f));
  Rng rng(5);
  const auto proposal = server.propose_round_with({0, 1, 2, 3}, provider, rng);
  server.commit(proposal);
  EXPECT_EQ(server.global_model().parameters(), proposal.candidate_params);
  EXPECT_EQ(server.version(), 1u);
  EXPECT_EQ(server.current_round(), 1u);
}

TEST(FlServer, DiscardKeepsModelAdvancesRound) {
  FlServer server(arch(), fl_config(), 6);
  const auto before = server.global_model().parameters();
  FixedProvider provider(ParamVec(server.global_model().num_params(), 0.5f));
  Rng rng(7);
  const auto proposal = server.propose_round_with({0, 1, 2, 3}, provider, rng);
  server.discard(proposal);
  EXPECT_EQ(server.global_model().parameters(), before);
  EXPECT_EQ(server.version(), 0u);
  EXPECT_EQ(server.current_round(), 1u);
}

TEST(FlServer, StaleProposalRejected) {
  FlServer server(arch(), fl_config(), 8);
  FixedProvider provider(ParamVec(server.global_model().num_params(), 0.1f));
  Rng rng(9);
  const auto p1 = server.propose_round_with({0, 1, 2, 3}, provider, rng);
  server.commit(p1);
  EXPECT_THROW(server.commit(p1), std::logic_error);
  EXPECT_THROW(server.discard(p1), std::logic_error);
}

TEST(FlServer, ProposeSamplesRequestedCount) {
  FlServer server(arch(), fl_config(), 10);
  auto clients = make_clients(20);
  HonestUpdateProvider provider(&clients, TrainConfig{});
  Rng rng(11);
  const auto proposal = server.propose_round(provider, rng);
  EXPECT_EQ(proposal.contributors.size(), 4u);
}

TEST(FlServer, EmptyContributorsThrow) {
  FlServer server(arch(), fl_config(), 12);
  FixedProvider provider(ParamVec(server.global_model().num_params(), 0.0f));
  Rng rng(13);
  EXPECT_THROW(server.propose_round_with({}, provider, rng),
               std::invalid_argument);
}

TEST(FlServer, TrainingImprovesAccuracy) {
  FlServer server(arch(), fl_config(), 14);
  auto clients = make_clients(20);
  HonestUpdateProvider provider(&clients, TrainConfig{});
  Rng rng(15);

  // Pool all client data as an eval set.
  Dataset eval(2, 2);
  for (const auto& c : clients) eval.merge(c.data());
  const double before = evaluate_confusion(server.global_model(), eval)
                            .accuracy();
  for (int r = 0; r < 15; ++r) {
    const auto proposal = server.propose_round(provider, rng);
    server.commit(proposal);
  }
  const double after = evaluate_confusion(server.global_model(), eval)
                           .accuracy();
  EXPECT_GT(after, before + 0.2);
  EXPECT_GT(after, 0.9);
}

}  // namespace
}  // namespace baffle
