// Pool-size parity of the round's client-update phase.
//
// The global pool's size must not change results: per-client Rngs are
// pre-forked serially in contributor order, updates land in pre-sized
// slots, and the aggregation order is unchanged — so a round on four
// workers is bit-identical to the inline loop a one-worker pool runs,
// for honest and attacking providers alike, with and without secure
// aggregation. Both arms run in this process (ScopedGlobalPool), so
// the check sees real concurrency whatever BAFFLE_THREADS says.

#include <gtest/gtest.h>

#include <memory>

#include "attack/dba.hpp"
#include "attack/model_replacement.hpp"
#include "data/synth.hpp"
#include "fl/server.hpp"
#include "nn/train.hpp"
#include "util/thread_pool.hpp"

namespace baffle {
namespace {

struct ParityFixture {
  SynthTask task;
  std::vector<FlClient> clients;

  ParityFixture() : task(make_task()) {
    Rng rng(101);
    for (std::size_t i = 0; i < 8; ++i) {
      Rng crng = rng.fork();
      clients.emplace_back(i, task.train.sample(120, crng));
    }
  }

  static SynthTask make_task() {
    Rng rng(100);
    SynthTaskConfig cfg = synth_vision10_config();
    cfg.backdoor_kind = BackdoorKind::kTrigger;
    cfg.train_per_class = 80;
    return make_synth_task(cfg, rng);
  }

  MlpConfig arch() const {
    return MlpConfig{{task.config.dim, 16, task.config.num_classes},
                     Activation::kRelu};
  }

  FlConfig fl_config(bool secure = false) const {
    FlConfig cfg;
    cfg.total_clients = clients.size();
    cfg.clients_per_round = 4;
    cfg.secure_aggregation = secure;
    return cfg;
  }
};

/// Runs `rounds` committed rounds on a fresh same-seeded server and
/// provider with a `workers`-thread global pool; returns each round's
/// candidate parameters.
template <typename ProviderFactory>
std::vector<ParamVec> run_rounds(std::size_t workers, const ParityFixture& f,
                                 ProviderFactory make, bool secure,
                                 std::size_t rounds = 3) {
  const ScopedGlobalPool pool(workers);
  FlServer server(f.arch(), f.fl_config(secure), 55);
  auto provider = make();
  Rng rng(77);
  const std::vector<std::size_t> contributors{0, 2, 5, 7};
  std::vector<ParamVec> candidates;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto proposal =
        server.propose_round_with(contributors, *provider, rng);
    candidates.push_back(proposal.candidate_params);
    server.commit(proposal);
  }
  return candidates;
}

/// The 4-worker rounds must reproduce the 1-worker rounds bit for bit.
template <typename ProviderFactory>
void expect_bit_exact_rounds(const ParityFixture& f, ProviderFactory make,
                             bool secure) {
  const auto reference = run_rounds(1, f, make, secure);
  const auto parallel = run_rounds(4, f, make, secure);
  ASSERT_EQ(reference.size(), parallel.size());
  for (std::size_t r = 0; r < reference.size(); ++r) {
    ASSERT_EQ(reference[r], parallel[r]) << "round " << r << " diverged";
  }
}

TEST(ParallelRound, HonestBitExact) {
  ParityFixture f;
  expect_bit_exact_rounds(
      f,
      [&] {
        return std::make_unique<HonestUpdateProvider>(&f.clients,
                                                      TrainConfig{});
      },
      /*secure=*/false);
}

TEST(ParallelRound, HonestSecureAggregationBitExact) {
  ParityFixture f;
  expect_bit_exact_rounds(
      f,
      [&] {
        return std::make_unique<HonestUpdateProvider>(&f.clients,
                                                      TrainConfig{});
      },
      /*secure=*/true);
}

TEST(ParallelRound, ReplacementAttackBitExact) {
  ParityFixture f;
  ModelReplacementConfig attack;
  attack.task = BackdoorTask{BackdoorKind::kTrigger,
                             f.task.config.backdoor_source,
                             f.task.config.backdoor_target};
  attack.poison_fraction = 0.3;
  attack.boost = 4.0;
  attack.train.epochs = 2;
  expect_bit_exact_rounds(
      f,
      [&] {
        HonestUpdateProvider honest(&f.clients, TrainConfig{});
        auto p = std::make_unique<MaliciousUpdateProvider>(
            honest, /*attacker_id=*/2, f.clients[2].data(),
            f.task.backdoor_train, attack);
        p->arm(true);
        return p;
      },
      /*secure=*/false);
}

TEST(ParallelRound, DbaAttackBitExact) {
  ParityFixture f;
  DbaConfig attack;
  attack.num_parts = 3;
  attack.target_class = f.task.config.backdoor_target;
  attack.train.epochs = 2;
  expect_bit_exact_rounds(
      f,
      [&] {
        HonestUpdateProvider honest(&f.clients, TrainConfig{});
        std::vector<Dataset> colluder_data{f.clients[0].data(),
                                           f.clients[2].data(),
                                           f.clients[5].data()};
        auto p = std::make_unique<DbaUpdateProvider>(
            honest, std::vector<std::size_t>{0, 2, 5},
            std::move(colluder_data), trigger_pattern(f.task.config), attack);
        p->arm(true);
        return p;
      },
      /*secure=*/true);
}

TEST(ParallelRound, SampledContributorsMatchSerial) {
  // propose_round consumes round_rng for sampling before forking the
  // per-client streams, so sampled rounds must also agree bit-for-bit.
  ParityFixture f;
  const auto run = [&f](std::size_t workers) {
    const ScopedGlobalPool pool(workers);
    FlServer server(f.arch(), f.fl_config(), 56);
    HonestUpdateProvider provider(&f.clients, TrainConfig{});
    Rng rng(9);
    std::vector<FlServer::Proposal> proposals;
    for (int r = 0; r < 2; ++r) {
      proposals.push_back(server.propose_round(provider, rng));
      server.commit(proposals.back());
    }
    return proposals;
  };
  const auto reference = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(reference.size(), parallel.size());
  for (std::size_t r = 0; r < reference.size(); ++r) {
    ASSERT_EQ(reference[r].contributors, parallel[r].contributors);
    ASSERT_EQ(reference[r].candidate_params, parallel[r].candidate_params);
  }
}

}  // namespace
}  // namespace baffle
