// TrainWorkspace behavior: reuse across differently-shaped trainings is
// bit-exact, and the steady-state step loop performs zero heap
// allocations once the workspace is warm.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "nn/train.hpp"

namespace {
// Global allocation counter. Replacing the scalar operator new makes the
// default array/nothrow forms route through it as well, so every
// (non-over-aligned) heap allocation in this binary is counted.
std::atomic<std::size_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

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

TEST(TrainWorkspace, ReuseAcrossShapesBitExact) {
  // Warm the shared workspace on a wide task, then train a smaller model
  // with it: shrunken-then-regrown buffers must not change results.
  Rng data_rng(1);
  Matrix wide_x, small_x;
  std::vector<int> wide_y, small_y;
  make_blobs(wide_x, wide_y, 70, 6, data_rng);
  make_blobs(small_x, small_y, 33, 2, data_rng);

  TrainWorkspace shared;
  Mlp warm(MlpConfig{{6, 12, 2}, Activation::kRelu});
  Rng warm_init(2), warm_train(3);
  warm.init(warm_init);
  train_sgd(warm, wide_x, wide_y, TrainConfig{}, warm_train, shared);

  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 16;  // 33 % 16 != 0 -> partial final batch
  Mlp with_shared(MlpConfig{{2, 4, 2}, Activation::kRelu});
  Mlp with_fresh(MlpConfig{{2, 4, 2}, Activation::kRelu});
  Rng init_a(7), init_b(7);
  with_shared.init(init_a);
  with_fresh.init(init_b);

  Rng train_a(9), train_b(9);
  TrainWorkspace fresh;
  const TrainStats sa =
      train_sgd(with_shared, small_x, small_y, cfg, train_a, shared);
  const TrainStats sb =
      train_sgd(with_fresh, small_x, small_y, cfg, train_b, fresh);
  EXPECT_EQ(sa.steps, sb.steps);
  EXPECT_EQ(sa.final_loss, sb.final_loss);
  EXPECT_EQ(with_shared.parameters(), with_fresh.parameters());
}

TEST(TrainWorkspace, WorkspaceOverloadMatchesAllocatingOverload) {
  Rng data_rng(4);
  Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 60, 3, data_rng);
  TrainConfig cfg;
  cfg.epochs = 2;
  Mlp a(MlpConfig{{3, 6, 2}, Activation::kRelu});
  Mlp b(MlpConfig{{3, 6, 2}, Activation::kRelu});
  Rng init_a(5), init_b(5);
  a.init(init_a);
  b.init(init_b);
  Rng train_a(6), train_b(6);
  TrainWorkspace ws;
  train_sgd(a, x, y, cfg, train_a, ws);
  train_sgd(b, x, y, cfg, train_b);
  EXPECT_EQ(a.parameters(), b.parameters());
}

TEST(TrainWorkspace, SteadyStateStepLoopDoesNotAllocate) {
  Rng data_rng(8);
  Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 64, 4, data_rng);
  Mlp model(MlpConfig{{4, 8, 2}, Activation::kRelu});
  Rng rng(10);
  model.init(rng);

  TrainWorkspace ws;
  TrainConfig cfg;
  cfg.batch_size = 16;
  cfg.epochs = 1;
  train_sgd(model, x, y, cfg, rng, ws);  // warm-up sizes every buffer

  // A warmed call allocates nothing, however many steps it runs.
  const std::size_t before_short = g_allocs.load();
  train_sgd(model, x, y, cfg, rng, ws);
  const std::size_t short_allocs = g_allocs.load() - before_short;

  cfg.epochs = 3;
  const std::size_t before_long = g_allocs.load();
  train_sgd(model, x, y, cfg, rng, ws);
  const std::size_t long_allocs = g_allocs.load() - before_long;

  EXPECT_EQ(short_allocs, 0u) << "1 epoch";
  EXPECT_EQ(long_allocs, 0u) << "3 epochs";
}

}  // namespace
}  // namespace baffle
