#include "fl/client.hpp"

#include <gtest/gtest.h>

#include <array>
#include <thread>

#include "support/alloc_counter.hpp"
#include "tensor/ops.hpp"

namespace baffle {
namespace {

Dataset blob_data(int label_offset, std::size_t n) {
  Dataset d(2, 2);
  Rng rng(42 + label_offset);
  for (std::size_t i = 0; i < n; ++i) {
    const int y = static_cast<int>(i % 2);
    d.add(std::array{static_cast<float>(rng.normal(y == 0 ? -2 : 2, 0.4)),
                     static_cast<float>(rng.normal())},
          y);
  }
  return d;
}

Mlp fresh_model() {
  Mlp m(MlpConfig{{2, 4, 2}});
  Rng rng(7);
  m.init(rng);
  return m;
}

TEST(FlClient, UpdateHasModelSize) {
  const FlClient client(3, blob_data(0, 40));
  Mlp global = fresh_model();
  Rng rng(1);
  const ParamVec u = client.compute_update(global, TrainConfig{}, rng);
  EXPECT_EQ(u.size(), global.num_params());
  EXPECT_EQ(client.id(), 3u);
}

TEST(FlClient, UpdateIsNonTrivial) {
  const FlClient client(0, blob_data(0, 40));
  Mlp global = fresh_model();
  Rng rng(2);
  const ParamVec u = client.compute_update(global, TrainConfig{}, rng);
  EXPECT_GT(l2_norm(u), 1e-4f);
}

TEST(FlClient, UpdateDoesNotMutateGlobal) {
  const FlClient client(0, blob_data(0, 40));
  Mlp global = fresh_model();
  const auto before = global.parameters();
  Rng rng(3);
  client.compute_update(global, TrainConfig{}, rng);
  EXPECT_EQ(global.parameters(), before);
}

TEST(FlClient, EmptyShardYieldsZeroUpdate) {
  const FlClient client(0, Dataset(2, 2));
  Mlp global = fresh_model();
  Rng rng(4);
  const ParamVec u = client.compute_update(global, TrainConfig{}, rng);
  for (float x : u) EXPECT_EQ(x, 0.0f);
}

TEST(FlClient, ApplyingUpdateReproducesLocalModel) {
  const FlClient client(0, blob_data(0, 60));
  Mlp global = fresh_model();
  // Non-zero biases, so the bias half of U = L - G is checked too.
  for (Dense& layer : global.layers()) {
    for (std::size_t j = 0; j < layer.bias().size(); ++j) {
      layer.bias()[j] = 0.25f * static_cast<float>(j + 1);
    }
  }
  Rng rng_a(5), rng_b(5);
  const ParamVec u = client.compute_update(global, TrainConfig{}, rng_a);

  // Re-run the same local training manually.
  Mlp local = global;
  train_sgd(local, client.data().features(), client.data().labels(),
            TrainConfig{}, rng_b);
  const ParamVec expected = subtract(local.parameters(), global.parameters());
  EXPECT_EQ(u, expected);
}

TEST(HonestProvider, DelegatesToClients) {
  std::vector<FlClient> clients;
  clients.emplace_back(0, blob_data(0, 30));
  clients.emplace_back(1, blob_data(1, 30));
  HonestUpdateProvider provider(&clients, TrainConfig{});
  Mlp global = fresh_model();
  Rng rng(6);
  const ParamVec u0 = provider.update_for(0, global, rng);
  const ParamVec u1 = provider.update_for(1, global, rng);
  EXPECT_EQ(u0.size(), global.num_params());
  EXPECT_NE(u0, u1);  // different shards, different updates
}

TEST(FlClient, ReusedLocalModelSlotGivesAFreshThreadsUpdate) {
  // The local model is leased per thread: a slot left holding another
  // client's trained model, or rebuilt for another architecture, must
  // give the bytes of a thread whose slot was never used.
  const FlClient client(0, blob_data(0, 50)), other(1, blob_data(1, 30));
  const Mlp global = fresh_model();
  ParamVec fresh;
  std::thread([&] {
    Rng rng(8);
    fresh = client.compute_update(global, TrainConfig{}, rng);
  }).join();

  Rng other_rng(9);
  other.compute_update(global, TrainConfig{}, other_rng);
  Rng rng(8);
  EXPECT_EQ(client.compute_update(global, TrainConfig{}, rng), fresh);

  Mlp wide(MlpConfig{{2, 7, 2}});
  wide.init(other_rng);
  other.compute_update(wide, TrainConfig{}, other_rng);
  Rng again(8);
  EXPECT_EQ(client.compute_update(global, TrainConfig{}, again), fresh);
}

TEST(HonestProvider, WarmUpdateForAllocatesOnlyTheUpdate) {
  // The local model and the training scratch are leased per thread, so
  // once this thread's slots are warm the returned update is the call's
  // one heap allocation.
  std::vector<FlClient> clients;
  clients.emplace_back(0, blob_data(0, 60));
  HonestUpdateProvider provider(&clients, TrainConfig{});
  const Mlp global = fresh_model();
  Rng rng(10);
  provider.update_for(0, global, rng);
  const std::size_t before = heap_allocations();
  const ParamVec u = provider.update_for(0, global, rng);
  EXPECT_EQ(heap_allocations() - before, 1u);
  EXPECT_EQ(u.size(), global.num_params());
}

TEST(HonestProvider, UnknownClientThrows) {
  std::vector<FlClient> clients;
  clients.emplace_back(0, blob_data(0, 10));
  HonestUpdateProvider provider(&clients, TrainConfig{});
  Mlp global = fresh_model();
  Rng rng(7);
  EXPECT_THROW(provider.update_for(5, global, rng), std::out_of_range);
}

}  // namespace
}  // namespace baffle
