#include "nn/sgd.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/train.hpp"
#include "support/train_oracle.hpp"

namespace baffle {
namespace {

MlpConfig tiny() { return MlpConfig{{2, 2}}; }

/// Puts a known, nonzero gradient into every gradient buffer.
void set_known_gradient(Mlp& model) {
  float g = 0.0f;
  for (Dense& layer : model.layers()) {
    for (float& v : layer.weight_grad().flat()) v = (g += 0.25f);
    for (float& v : layer.bias_grad()) v = (g -= 0.75f);
  }
}

TEST(Sgd, RejectsBadHyperparameters) {
  const Matrix x(4, 2, 1.0f);
  const std::vector<int> labels{0, 1, 0, 1};
  for (float lr : {0.0f, -0.1f, std::numeric_limits<float>::quiet_NaN(),
                   std::numeric_limits<float>::infinity()}) {
    SCOPED_TRACE(::testing::Message() << "learning_rate=" << lr);
    Mlp model(tiny());
    Rng rng(1);
    model.init(rng);
    const std::vector<float> before = model.parameters();
    TrainConfig cfg;
    cfg.sgd.learning_rate = lr;
    try {
      train_sgd(model, x, labels, cfg, rng);
      ADD_FAILURE() << "train_sgd accepted the rate";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("learning_rate"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(model.parameters(), before) << "no step may run";
  }
}

TEST(Sgd, StepMovesAgainstGradient) {
  Mlp model(tiny());
  std::vector<float> zero(model.num_params(), 0.0f);
  model.set_parameters(zero);
  set_known_gradient(model);
  const auto grad = flat_gradients(model);

  sgd_step(model, 0.5f);
  const auto params = model.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_FLOAT_EQ(params[i], -0.5f * grad[i]);
  }
}

TEST(Sgd, StepsMatchFlatReferenceForEveryConfig) {
  // The in-place per-layer step against the textbook step on the flat
  // parameter vector, w − lr · g with the product rounded before its
  // add: three steps leave the same bytes for every learning rate, and
  // the gradients are only read.
  Rng rng(3);
  Mlp init(MlpConfig{{3, 5, 2}});
  init.init(rng);
  for (Dense& layer : init.layers()) {
    for (float& b : layer.bias()) b = static_cast<float>(rng.normal());
    for (float& g : layer.weight_grad().flat()) {
      g = static_cast<float>(rng.normal());
    }
    for (float& g : layer.bias_grad()) g = static_cast<float>(rng.normal());
  }
  const std::vector<float> grad = flat_gradients(init);
  for (float lr : {0.1f, 0.05f, 0.3f, 0.5f}) {
    SCOPED_TRACE(::testing::Message() << "learning_rate=" << lr);
    std::vector<float> w = init.parameters();
    for (int step = 0; step < 3; ++step) {
      for (std::size_t i = 0; i < w.size(); ++i) {
        const float delta = -lr * grad[i];
        w[i] += delta;
      }
    }
    Mlp model = init;
    for (int step = 0; step < 3; ++step) sgd_step(model, lr);
    EXPECT_EQ(model.parameters(), w);
    EXPECT_EQ(flat_gradients(model), grad) << "step must only read gradients";
  }
}

}  // namespace
}  // namespace baffle
