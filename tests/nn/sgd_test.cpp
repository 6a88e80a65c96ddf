#include "nn/sgd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nn/loss.hpp"
#include "tensor/ops.hpp"

namespace baffle {
namespace {

MlpConfig tiny() { return MlpConfig{{2, 2}, Activation::kRelu}; }

/// Puts a known gradient into the model by running a forward/backward.
void set_unit_gradient(Mlp& model) {
  model.zero_grad();
  Matrix x(1, 2, 1.0f);
  model.forward(x);
  model.backward(Matrix(1, 2, 1.0f));
}

TEST(Sgd, RejectsBadHyperparameters) {
  EXPECT_THROW(Sgd(4, SgdConfig{.learning_rate = 0.0f}),
               std::invalid_argument);
  EXPECT_THROW(Sgd(4, SgdConfig{.learning_rate = 0.1f, .momentum = 1.0f}),
               std::invalid_argument);
}

TEST(Sgd, StepMovesAgainstGradient) {
  Mlp model(tiny());
  std::vector<float> zero(model.num_params(), 0.0f);
  model.set_parameters(zero);
  set_unit_gradient(model);
  const auto grad = model.gradients();

  Sgd opt(model.num_params(), SgdConfig{.learning_rate = 0.5f});
  opt.step(model);
  const auto params = model.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_FLOAT_EQ(params[i], -0.5f * grad[i]);
  }
}

TEST(Sgd, MomentumAcceleratesRepeatedSteps) {
  Mlp plain_model(tiny()), mom_model(tiny());
  std::vector<float> zero(plain_model.num_params(), 0.0f);
  plain_model.set_parameters(zero);
  mom_model.set_parameters(zero);

  Sgd plain(plain_model.num_params(), SgdConfig{.learning_rate = 0.1f});
  Sgd mom(mom_model.num_params(),
          SgdConfig{.learning_rate = 0.1f, .momentum = 0.9f});
  for (int i = 0; i < 3; ++i) {
    set_unit_gradient(plain_model);
    plain.step(plain_model);
    set_unit_gradient(mom_model);
    mom.step(mom_model);
  }
  // With a persistent gradient direction, momentum must travel farther.
  EXPECT_GT(l2_norm(mom_model.parameters()),
            l2_norm(plain_model.parameters()));
}

TEST(Sgd, WeightDecayShrinksParameters) {
  Mlp model(tiny());
  std::vector<float> ones(model.num_params(), 1.0f);
  model.set_parameters(ones);
  model.zero_grad();  // zero gradient: only decay acts
  Sgd opt(model.num_params(),
          SgdConfig{.learning_rate = 0.1f, .weight_decay = 0.5f});
  opt.step(model);
  for (float p : model.parameters()) EXPECT_NEAR(p, 1.0f - 0.05f, 1e-6f);
}

TEST(Sgd, GradClipBoundsStepSize) {
  Mlp model(tiny());
  std::vector<float> zero(model.num_params(), 0.0f);
  model.set_parameters(zero);
  set_unit_gradient(model);
  Sgd opt(model.num_params(),
          SgdConfig{.learning_rate = 1.0f, .grad_clip = 0.01f});
  opt.step(model);
  EXPECT_LE(l2_norm(model.parameters()), 0.01f + 1e-6f);
}

TEST(Sgd, StepsMatchFlatReferenceForEveryConfig) {
  // The in-place per-layer step against the textbook step on the flat
  // parameter vector (gradient, + decay · w, clipped by its norm,
  // momentum, w − lr · v), each product rounded before its add: three
  // steps leave the same bytes for every SgdConfig shape, which also
  // pins the velocity's flat layout across layers.
  const SgdConfig configs[] = {
      {.learning_rate = 0.1f},
      {.learning_rate = 0.1f, .momentum = 0.9f},
      {.learning_rate = 0.1f, .weight_decay = 0.05f},
      {.learning_rate = 0.5f, .grad_clip = 0.5f},
      {.learning_rate = 0.3f, .momentum = 0.5f, .weight_decay = 0.02f,
       .grad_clip = 1.0f},
  };
  Rng rng(3);
  Mlp init(MlpConfig{{3, 5, 2}, Activation::kRelu});
  init.init(rng);
  for (Dense& layer : init.layers()) {
    for (float& b : layer.bias()) b = static_cast<float>(rng.normal());
    for (float& g : layer.weight_grad().flat()) {
      g = static_cast<float>(rng.normal());
    }
    for (float& g : layer.bias_grad()) g = static_cast<float>(rng.normal());
  }
  const std::vector<float> grad = init.gradients();
  for (const SgdConfig& c : configs) {
    SCOPED_TRACE(::testing::Message() << "momentum=" << c.momentum
                                      << " decay=" << c.weight_decay
                                      << " clip=" << c.grad_clip);
    std::vector<float> w = init.parameters();
    std::vector<float> v(w.size(), 0.0f);
    for (int step = 0; step < 3; ++step) {
      std::vector<float> g = grad;
      if (c.weight_decay > 0.0f) {
        for (std::size_t i = 0; i < g.size(); ++i) {
          const float decay = c.weight_decay * w[i];
          g[i] += decay;
        }
      }
      if (c.grad_clip > 0.0f) {
        double sq = 0.0;
        for (float x : g) sq += static_cast<double>(x) * x;
        const auto norm = static_cast<float>(std::sqrt(sq));
        if (norm > c.grad_clip) {
          for (float& x : g) x *= c.grad_clip / norm;
        }
      }
      for (std::size_t i = 0; i < g.size(); ++i) {
        if (c.momentum > 0.0f) {
          const float kept = c.momentum * v[i];
          v[i] = kept + g[i];
          g[i] = v[i];
        }
        const float delta = -c.learning_rate * g[i];
        w[i] += delta;
      }
    }
    Mlp model = init;
    Sgd opt(model.num_params(), c);
    for (int step = 0; step < 3; ++step) opt.step(model);
    EXPECT_EQ(model.parameters(), w);
    EXPECT_EQ(model.gradients(), grad) << "step must only read gradients";
  }
}

TEST(Sgd, ModelSizeMismatchThrows) {
  Mlp model(tiny());
  Sgd opt(model.num_params() + 1, SgdConfig{});
  set_unit_gradient(model);
  EXPECT_THROW(opt.step(model), std::invalid_argument);
}

}  // namespace
}  // namespace baffle
