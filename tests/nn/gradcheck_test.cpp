// Numerical gradient check: the single most load-bearing property of the
// NN substrate. The gradients train_sgd steps on (Mlp::compute_gradients,
// on both of its output-layer paths) must match central finite
// differences of the loss (the test helper's cross-entropy) for every
// parameter, across architectures.

#include <gtest/gtest.h>

#include "nn/mlp.hpp"
#include "support/train_oracle.hpp"
#include "util/rng.hpp"

namespace baffle {
namespace {

struct GradCheckCase {
  MlpConfig config;
  const char* name;
};

// Without this, gtest prints the case as its raw bytes, heap pointers
// included, and the listed test names change from one build to the next.
void PrintTo(const GradCheckCase& c, std::ostream* os) { *os << c.name; }

class GradCheck : public ::testing::TestWithParam<GradCheckCase> {};

double loss_at(Mlp& model, const std::vector<float>& params, const Matrix& x,
               const std::vector<int>& labels) {
  model.set_parameters(params);
  return cross_entropy(model, x, labels);
}

TEST_P(GradCheck, BackpropMatchesFiniteDifferences) {
  const auto& param = GetParam();
  Mlp model(param.config);
  Rng rng(1234);
  model.init(rng);

  const std::size_t batch = 5;
  Matrix x(batch, model.input_dim());
  for (float& v : x.flat()) v = static_cast<float>(rng.normal());
  std::vector<int> labels(batch);
  for (auto& y : labels) {
    y = static_cast<int>(rng.uniform_int(
        0, static_cast<std::int64_t>(model.output_dim()) - 1));
  }

  // Analytic gradient: one training step's.
  TrainWorkspace ws;
  model.compute_gradients(x, labels, ws);
  const std::vector<float> analytic = flat_gradients(model);
  std::vector<float> params = model.parameters();

  // Central differences on a random subset of parameters (full sweep on
  // small nets, subsampled on bigger ones to keep the test fast).
  const double eps = 1e-3;
  const std::size_t stride = std::max<std::size_t>(1, params.size() / 120);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < params.size(); i += stride) {
    const float orig = params[i];
    params[i] = orig + static_cast<float>(eps);
    const double up = loss_at(model, params, x, labels);
    params[i] = orig - static_cast<float>(eps);
    const double down = loss_at(model, params, x, labels);
    params[i] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric, 5e-3)
        << param.name << " param " << i;
    ++checked;
  }
  EXPECT_GE(checked, std::min<std::size_t>(params.size(), 20));
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, GradCheck,
    ::testing::Values(
        GradCheckCase{{{3, 2}}, "linear"},
        GradCheckCase{{{4, 8, 3}}, "relu_1hidden"},
        GradCheckCase{{{5, 8, 6, 4}}, "relu_2hidden"},
        // The two architectures the experiments train.
        GradCheckCase{{{32, 64, 10}}, "vision_relu"},
        GradCheckCase{{{48, 96, 62}}, "femnist_relu"}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace baffle
