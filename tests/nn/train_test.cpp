#include "nn/train.hpp"

#include <gtest/gtest.h>

#include "data/dataset.hpp"
#include "metrics/confusion.hpp"
#include "support/train_oracle.hpp"

namespace baffle {
namespace {

/// Two well-separated Gaussian blobs — trivially learnable.
void make_blobs(Matrix& x, std::vector<int>& y, std::size_t n, Rng& rng) {
  x = Matrix(n, 2);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = i % 2;
    const double cx = label == 0 ? -3.0 : 3.0;
    x.at(i, 0) = static_cast<float>(rng.normal(cx, 0.5));
    x.at(i, 1) = static_cast<float>(rng.normal(0.0, 0.5));
    y[i] = label;
  }
}

TEST(Train, LearnsSeparableBlobs) {
  Rng rng(1);
  Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 200, rng);
  Mlp model(MlpConfig{{2, 8, 2}});
  model.init(rng);
  TrainConfig cfg;
  cfg.epochs = 20;
  cfg.batch_size = 16;
  cfg.sgd.learning_rate = 0.1f;
  const TrainStats stats = train_sgd(model, x, y, cfg, rng);
  EXPECT_GT(stats.steps, 0u);
  Dataset data(2, 2);
  for (std::size_t i = 0; i < x.rows(); ++i) data.add(x.row(i), y[i]);
  EXPECT_GT(evaluate_confusion(model, data).accuracy(), 0.97);
}

TEST(Train, LossDecreases) {
  Rng rng(2);
  Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 100, rng);
  Mlp model(MlpConfig{{2, 4, 2}});
  model.init(rng);
  TrainConfig one_epoch;
  one_epoch.epochs = 1;
  one_epoch.sgd.learning_rate = 0.05f;
  train_sgd(model, x, y, one_epoch, rng);
  const double loss1 = cross_entropy(model, x, y);
  for (int i = 0; i < 10; ++i) train_sgd(model, x, y, one_epoch, rng);
  EXPECT_LT(cross_entropy(model, x, y), loss1);
}

TEST(Train, DeterministicGivenSeed) {
  Rng data_rng(3);
  Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 60, data_rng);
  TrainConfig cfg;
  cfg.epochs = 3;

  Mlp a(MlpConfig{{2, 4, 2}});
  Mlp b(MlpConfig{{2, 4, 2}});
  Rng init_a(7), init_b(7);
  a.init(init_a);
  b.init(init_b);
  Rng train_a(9), train_b(9);
  train_sgd(a, x, y, cfg, train_a);
  train_sgd(b, x, y, cfg, train_b);
  EXPECT_EQ(a.parameters(), b.parameters());
}

TEST(Train, EmptyDatasetIsNoop) {
  Mlp model(MlpConfig{{2, 2}});
  Rng rng(4);
  model.init(rng);
  const auto before = model.parameters();
  Matrix x(0, 2);
  const TrainStats stats = train_sgd(model, x, {}, TrainConfig{}, rng);
  EXPECT_EQ(stats.steps, 0u);
  EXPECT_EQ(model.parameters(), before);
}

TEST(Train, MismatchedLabelsThrow) {
  Mlp model(MlpConfig{{2, 2}});
  Rng rng(5);
  Matrix x(3, 2);
  const std::vector<int> y{0, 1};
  EXPECT_THROW(train_sgd(model, x, y, TrainConfig{}, rng),
               std::invalid_argument);
}

TEST(Train, ZeroBatchSizeThrows) {
  Mlp model(MlpConfig{{2, 2}});
  Rng rng(6);
  Matrix x(3, 2);
  const std::vector<int> y{0, 1, 0};
  TrainConfig cfg;
  cfg.batch_size = 0;
  EXPECT_THROW(train_sgd(model, x, y, cfg, rng), std::invalid_argument);
}

TEST(Train, PartialFinalBatchHandled) {
  Rng rng(7);
  Matrix x;
  std::vector<int> y;
  make_blobs(x, y, 33, rng);  // 33 % 16 != 0
  Mlp model(MlpConfig{{2, 4, 2}});
  model.init(rng);
  TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 16;
  const TrainStats stats = train_sgd(model, x, y, cfg, rng);
  EXPECT_EQ(stats.steps, 3u);  // 16 + 16 + 1
}

}  // namespace
}  // namespace baffle
