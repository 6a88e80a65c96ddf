// TransportRoundDriver over many rounds: every actor decodes its own
// frames, and the driver's SnapshotStore leaves one snapshot per
// accepted (version, bytes) across all of their windows.

#include "net/round_driver.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <numeric>

#include "data/synth.hpp"
#include "fl/sampler.hpp"
#include "util/thread_pool.hpp"

namespace baffle {
namespace {

TEST(TransportRoundDriver, ActorsShareOneSnapshotPerAcceptedModel) {
  const ScopedGlobalPool pool(4);  // actors intern concurrently
  Rng rng(2024);
  SynthTaskConfig task_cfg = synth_vision10_config();
  task_cfg.train_per_class = 24;
  task_cfg.test_per_class = 1;
  SynthTask task = make_synth_task(task_cfg, rng);
  task.train.shuffle(rng);

  constexpr std::size_t kClients = 12;
  constexpr std::size_t kShard = 20;
  std::vector<FlClient> clients;
  for (std::size_t id = 0; id < kClients; ++id) {
    std::vector<std::size_t> rows(kShard);
    std::iota(rows.begin(), rows.end(), id * kShard);
    clients.emplace_back(id, task.train.subset(rows));
  }
  const MlpConfig arch{{task_cfg.dim, 8, task_cfg.num_classes}};
  FlConfig fl;
  fl.total_clients = kClients;
  fl.clients_per_round = 4;
  fl.global_lr = 3.0;
  fl.local_train.epochs = 1;
  FlServer server(arch, fl, rng.next_u64());
  server.global_model().init(rng);

  constexpr std::size_t kLookback = 6;
  FeedbackConfig feedback;
  feedback.mode = DefenseMode::kClientsOnly;
  feedback.quorum = 1;
  feedback.validator.lookback = kLookback;
  BaffleDefense defense(arch, feedback, Dataset{});
  defense.on_commit(server.version(), server.global_model().parameters());

  // Client 0 rejects every round it validates, so windows stall and
  // the actors' sync levels drift apart.
  HonestUpdateProvider provider(&clients, fl.local_train);
  InProcTransport transport;
  TransportRoundDriver driver(transport, server, defense, clients, provider,
                              {0}, VoteStrategy::kAlwaysReject);
  const ClientSampler sampler(kClients, fl.clients_per_round);
  std::size_t rejects = 0;
  for (std::size_t r = 1; r <= 4 * (kLookback + 1); ++r) {
    const std::vector<std::size_t> contributors = sampler.sample_round(rng);
    const FlServer::Proposal proposal =
        driver.propose_round(contributors, rng);
    FeedbackDecision decision;
    if (defense.ready()) decision = driver.evaluate(proposal, contributors);
    if (decision.reject) {
      ++rejects;
      server.discard(proposal);
      defense.on_reject();
      driver.finish_round(proposal, false, server.version(), decision);
    } else {
      const std::uint64_t version = server.commit(proposal);
      defense.on_commit(version, proposal.candidate_params);
      driver.finish_round(proposal, true, version, decision);
    }
  }
  ASSERT_GT(rejects, 0u);
  EXPECT_EQ(driver.tracker().stats().total_bytes(), driver.wire_bytes());

  // Every snapshot in every live window, by version.
  std::map<std::uint64_t, std::vector<const GlobalModel*>> by_version;
  for (std::size_t id = 0; id < kClients; ++id) {
    const ClientActor* actor = driver.actor(id);
    if (actor == nullptr) continue;
    for (const auto& model : actor->history().window_shared(kLookback + 1)) {
      by_version[model->version].push_back(model.get());
    }
  }
  // Windows of different ages coexist.
  EXPECT_GT(by_version.size(), kLookback + 1);
  for (const auto& [version, models] : by_version) {
    for (const GlobalModel* m : models) {
      for (const GlobalModel* other : models) {
        if (m == other) continue;
        EXPECT_NE(std::memcmp(m->params.data(), other->params.data(),
                              m->params.size() * sizeof(float)),
                  0)
            << "two snapshots of version " << version << " hold equal bytes";
      }
    }
  }
  EXPECT_LE(driver.snapshots().live(), by_version.size());
}

}  // namespace
}  // namespace baffle
