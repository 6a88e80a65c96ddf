#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "support/alloc_counter.hpp"
#include "support/predict_oracle.hpp"
#include "tensor/ops.hpp"

namespace baffle {
namespace {

MlpConfig small_config() {
  return MlpConfig{{4, 6, 3}};
}

TEST(Mlp, ParamCountMatchesLayers) {
  Mlp model(small_config());
  EXPECT_EQ(model.num_params(), (4u * 6 + 6) + (6u * 3 + 3));
  EXPECT_EQ(model.input_dim(), 4u);
  EXPECT_EQ(model.output_dim(), 3u);
}

TEST(Mlp, RejectsTooFewDims) {
  EXPECT_THROW(Mlp(MlpConfig{{4}}), std::invalid_argument);
}

TEST(Mlp, LastLayerIsLinear) {
  Mlp model(small_config());
  EXPECT_FALSE(model.layers().back().relu());
  EXPECT_TRUE(model.layers().front().relu());
}

TEST(Mlp, ParameterRoundTrip) {
  Mlp model(small_config());
  Rng rng(1);
  model.init(rng);
  const auto params = model.parameters();
  ASSERT_EQ(params.size(), model.num_params());

  Mlp other(small_config());
  other.set_parameters(params);
  EXPECT_EQ(other.parameters(), params);
}

TEST(Mlp, SetParametersSizeMismatchThrows) {
  Mlp model(small_config());
  EXPECT_THROW(model.set_parameters(std::vector<float>(3)),
               std::invalid_argument);
}

TEST(Mlp, IdenticalParamsGiveIdenticalOutputs) {
  Mlp a(small_config()), b(small_config());
  Rng rng(2);
  a.init(rng);
  b.set_parameters(a.parameters());
  Rng data_rng(3);
  Matrix x(5, 4);
  for (float& v : x.flat()) v = static_cast<float>(data_rng.normal());
  const Matrix ya = oracle_logits(a, x);
  const Matrix yb = oracle_logits(b, x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_EQ(ya.flat()[i], yb.flat()[i]);
  }
}

TEST(Mlp, AddToParametersShiftsFlatVector) {
  Mlp model(small_config());
  Rng rng(4);
  model.init(rng);
  const auto before = model.parameters();
  std::vector<float> delta(model.num_params(), 0.25f);
  model.add_to_parameters(delta);
  const auto after = model.parameters();
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(after[i], before[i] + 0.25f);
  }
}

TEST(Mlp, AddToParametersSizeMismatchThrows) {
  Mlp model(small_config());
  EXPECT_THROW(model.add_to_parameters(std::vector<float>(2)),
               std::invalid_argument);
}

TEST(Mlp, ParameterDeltaIntoIsFlatDifference) {
  Mlp model(small_config()), base(small_config());
  Rng rng(5);
  model.init(rng);
  base.init(rng);
  std::vector<float> delta(model.num_params());
  model.parameter_delta_into(base, delta);
  EXPECT_EQ(delta, subtract(model.parameters(), base.parameters()));
}

TEST(Mlp, ParameterDeltaIntoRejectsMismatches) {
  Mlp model(small_config());
  std::vector<float> delta(model.num_params());
  EXPECT_THROW(model.parameter_delta_into(Mlp(MlpConfig{{4, 3, 6}}), delta),
               std::invalid_argument);
  delta.pop_back();
  EXPECT_THROW(model.parameter_delta_into(model, delta),
               std::invalid_argument);
}

TEST(Mlp, SetParametersFromWireBytesEqualsTheSpanForm) {
  // Length-prefixed f32s as a frame carries them, read at an odd
  // offset: the one-copy form leaves the bytes the span form does.
  Mlp model(small_config());
  Rng rng(8);
  model.init(rng);
  std::vector<float> params = model.parameters();
  params[3] = -0.0f;
  ByteWriter w;
  w.u8(0);
  w.f32_span(params);
  ByteReader r(w.bytes());
  r.u8();
  const F32View view = r.f32_view();

  Mlp from_span(small_config()), from_wire(small_config());
  from_span.set_parameters(params);
  from_wire.set_parameters(view);
  const std::vector<float> got = from_wire.parameters();
  EXPECT_EQ(std::memcmp(got.data(), from_span.parameters().data(),
                        got.size() * sizeof(float)),
            0);
  EXPECT_TRUE(std::signbit(got[3]));
  EXPECT_THROW(Mlp(MlpConfig{{4, 6, 2}}).set_parameters(view),
               std::invalid_argument);
}

TEST(Mlp, CopyParametersFromLeavesTheGradientBuffers) {
  Mlp from(small_config()), to(small_config());
  Rng rng(9);
  from.init(rng);
  to.init(rng);
  for (Dense& layer : to.layers()) {
    layer.weight_grad().fill(3.0f);
    std::fill(layer.bias_grad().begin(), layer.bias_grad().end(), 4.0f);
  }
  to.copy_parameters_from(from);
  EXPECT_EQ(to.parameters(), from.parameters());
  for (const Dense& layer : to.layers()) {
    for (float g : layer.weight_grad().flat()) EXPECT_EQ(g, 3.0f);
    for (float g : layer.bias_grad()) EXPECT_EQ(g, 4.0f);
  }
  EXPECT_THROW(to.copy_parameters_from(Mlp(MlpConfig{{4, 3, 6}})),
               std::invalid_argument);
}

TEST(LeasedMlp, WarmSlotIsReusedAndANestedLeaseTakesAnother) {
  const MlpConfig arch = small_config();
  const Mlp* first = nullptr;
  {
    const LeasedMlp lease(arch);
    first = &*lease;
  }
  {
    const std::size_t before = heap_allocations();
    const LeasedMlp again(arch);
    EXPECT_EQ(heap_allocations() - before, 0u) << "a warm lease allocates";
    EXPECT_EQ(&*again, first);
    const LeasedMlp nested(arch);
    EXPECT_NE(&*nested, &*again);
    EXPECT_EQ(nested->config().layer_dims, arch.layer_dims);
  }
  // Another architecture rebuilds the slot to its shape.
  const LeasedMlp other(MlpConfig{{5, 2}});
  EXPECT_EQ(other->num_params(), 12u);
  EXPECT_EQ(other->config().layer_dims, (std::vector<std::size_t>{5, 2}));
}

TEST(Mlp, DeepNetworkForwardShape) {
  Mlp model(MlpConfig{{8, 16, 16, 8, 5}});
  Rng rng(7);
  model.init(rng);
  Matrix x(10, 8, 0.1f);
  const Matrix y = oracle_logits(model, x);
  EXPECT_EQ(y.rows(), 10u);
  EXPECT_EQ(y.cols(), 5u);
}

}  // namespace
}  // namespace baffle
