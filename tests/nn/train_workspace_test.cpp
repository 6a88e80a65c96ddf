// train_sgd's leased training scratch: a slot reused across
// differently-shaped trainings is bit-exact, a warm call performs zero
// heap allocations, and a call nested inside a held lease takes its own
// slot.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "nn/train.hpp"
#include "support/alloc_counter.hpp"
#include "support/train_oracle.hpp"
#include "util/scratch_lease.hpp"

namespace baffle {
namespace {

void make_blobs(Matrix& x, std::vector<int>& y, std::size_t n,
                std::size_t dim, Rng& rng) {
  x = Matrix(n, dim);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    for (std::size_t d = 0; d < dim; ++d) {
      const double center = d == 0 ? (label == 0 ? -3.0 : 3.0) : 0.0;
      x.at(i, d) = static_cast<float>(rng.normal(center, 0.5));
    }
    y[i] = label;
  }
}

struct Trained {
  std::vector<float> params;
  TrainStats stats;
  double loss = 0.0;  // cross-entropy of the trained model on its data
};

/// Trains a {2, 4, 2} model from a fixed init on `x`/`y`: the small task
/// every test below compares across slots.
Trained train_small(const Matrix& x, const std::vector<int>& y) {
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 16;  // 33 % 16 != 0 -> partial final batch
  Mlp model(MlpConfig{{2, 4, 2}});
  Rng init(7), train(9);
  model.init(init);
  const TrainStats stats = train_sgd(model, x, y, cfg, train);
  return {model.parameters(), stats, cross_entropy(model, x, y)};
}

/// Every byte `ws` holds, sizes and shapes included.
std::vector<unsigned char> snapshot(const TrainWorkspace& ws) {
  std::vector<unsigned char> out;
  const auto put = [&](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    out.insert(out.end(), bytes, bytes + n);
  };
  const auto put_size = [&](std::size_t n) { put(&n, sizeof n); };
  const auto put_matrix = [&](const Matrix& m) {
    put_size(m.rows());
    put_size(m.cols());
    put(m.flat().data(), m.size() * sizeof(float));
  };
  put_matrix(ws.batch);
  put_size(ws.batch_labels.size());
  put(ws.batch_labels.data(), ws.batch_labels.size() * sizeof(int));
  put_size(ws.acts.size());
  for (const Matrix& a : ws.acts) put_matrix(a);
  put_matrix(ws.dlogits);
  put_matrix(ws.dx);
  put_matrix(ws.in_t);
  put_matrix(ws.wt);
  put_size(ws.order.size());
  put(ws.order.data(), ws.order.size() * sizeof(std::size_t));
  return out;
}

TEST(TrainWorkspace, ReuseAcrossShapesBitExact) {
  // Warm this thread's slot on a wide task, then train a smaller model
  // in it: shrunken-then-regrown buffers must not change results, so
  // the result equals the same training on a fresh thread's cold slot.
  Rng data_rng(1);
  Matrix wide_x, small_x;
  std::vector<int> wide_y, small_y;
  make_blobs(wide_x, wide_y, 70, 6, data_rng);
  make_blobs(small_x, small_y, 33, 2, data_rng);

  Mlp warm(MlpConfig{{6, 12, 2}});
  Rng warm_init(2), warm_train(3);
  warm.init(warm_init);
  train_sgd(warm, wide_x, wide_y, TrainConfig{}, warm_train);
  const Trained reused = train_small(small_x, small_y);

  Trained fresh;
  std::thread([&] { fresh = train_small(small_x, small_y); }).join();

  EXPECT_EQ(reused.stats.steps, fresh.stats.steps);
  EXPECT_EQ(reused.loss, fresh.loss);
  EXPECT_EQ(reused.params, fresh.params);
}

TEST(TrainWorkspace, NestedCallLeavesOuterLeaseUntouched) {
  // A call made while this thread holds a TrainWorkspace lease (as a
  // help-drained task would run inside another client's training) must
  // train in the next slot: the held one keeps every byte, and the
  // result equals an unnested call's.
  Rng data_rng(11);
  Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 33, 2, data_rng);
  const Trained unnested = train_small(x, y);

  Trained nested;
  std::vector<unsigned char> before, after;
  {
    const ScratchLease<TrainWorkspace> outer;
    TrainWorkspace& ws = *outer;
    ws.batch = Matrix(5, 3, -7.5f);
    ws.batch_labels.assign(5, 42);
    ws.acts.resize(2);
    for (Matrix& act : ws.acts) act = Matrix(5, 9, 123.25f);
    ws.dlogits = Matrix(5, 2, -0.125f);
    ws.dx = Matrix(5, 9, 99.0f);
    ws.in_t = Matrix(9, 5, 0.5f);
    ws.wt = Matrix(2, 9, -3.0f);
    ws.order.assign(17, 3);
    before = snapshot(ws);
    nested = train_small(x, y);
    after = snapshot(ws);
  }

  EXPECT_EQ(before, after) << "nested train_sgd wrote the held slot";
  EXPECT_EQ(nested.stats.steps, unnested.stats.steps);
  EXPECT_EQ(nested.loss, unnested.loss);
  EXPECT_EQ(nested.params, unnested.params);
}

TEST(TrainWorkspace, SteadyStateStepLoopDoesNotAllocate) {
  Rng data_rng(8);
  Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 64, 4, data_rng);
  Mlp model(MlpConfig{{4, 8, 2}});
  Rng rng(10);
  model.init(rng);

  TrainConfig cfg;
  cfg.batch_size = 16;
  cfg.epochs = 1;
  train_sgd(model, x, y, cfg, rng);  // warm-up sizes this thread's slot

  // A warmed call on the same thread allocates nothing, however many
  // steps it runs.
  const std::size_t before_short = heap_allocations();
  train_sgd(model, x, y, cfg, rng);
  const std::size_t short_allocs = heap_allocations() - before_short;

  cfg.epochs = 3;
  const std::size_t before_long = heap_allocations();
  train_sgd(model, x, y, cfg, rng);
  const std::size_t long_allocs = heap_allocations() - before_long;

  EXPECT_EQ(short_allocs, 0u) << "1 epoch";
  EXPECT_EQ(long_allocs, 0u) << "3 epochs";
}

}  // namespace
}  // namespace baffle
