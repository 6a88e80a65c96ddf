#include "nn/multi_eval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "data/synth.hpp"
#include "nn/mlp.hpp"
#include "support/predict_oracle.hpp"
#include "util/thread_pool.hpp"

namespace baffle {
namespace {

// Random-walk chain of ℓ models from one seeded init, mimicking the
// validator's history window.
std::vector<std::vector<float>> model_chain(const MlpConfig& arch, Rng& rng,
                                            std::size_t count) {
  Mlp model(arch);
  model.init(rng);
  std::vector<float> params = model.parameters();
  std::vector<std::vector<float>> chain;
  for (std::size_t v = 0; v < count; ++v) {
    for (float& p : params) p += static_cast<float>(rng.normal(0.0, 0.05));
    chain.push_back(params);
  }
  return chain;
}

Matrix features_matrix(std::size_t test_per_class, std::size_t dim,
                       std::uint64_t seed) {
  Rng rng(seed);
  SynthTaskConfig cfg = synth_vision10_config();
  cfg.train_per_class = 1;
  cfg.test_per_class = test_per_class;
  cfg.dim = dim;
  SynthTask task = make_synth_task(cfg, rng);
  return task.test.features();
}

// The oracle's logits (tests/support/predict_oracle.hpp), reduced to
// the first-max prediction and the top-2 margin.
void oracle_preds_and_margins(const MlpConfig& arch,
                              const std::vector<float>& params,
                              const Matrix& x,
                              std::vector<std::size_t>& preds,
                              std::vector<float>& margins) {
  Mlp model(arch);
  model.set_parameters(params);
  const Matrix logits = oracle_logits(model, x);
  preds.assign(x.rows(), 0);
  margins.assign(x.rows(), 0.0f);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto row = logits.row(r);
    float best = row[0];
    float second = -std::numeric_limits<float>::infinity();
    for (std::size_t i = 1; i < row.size(); ++i) {
      if (row[i] > best) {
        second = best;
        best = row[i];
        preds[r] = i;
      } else if (row[i] > second) {
        second = row[i];
      }
    }
    margins[r] = best - second;
  }
}

// One model through the batched entry point.
void predict_one(MultiModelEval& engine, std::span<const float> params,
                 std::span<std::size_t> out) {
  const MultiEvalModel model{params, out};
  engine.predict_many({&model, 1});
}

// Pool-size invariance (DESIGN.md §17): the tile sweep on a 4-worker
// global pool must produce BYTE-identical predictions and margins to
// the inline tile loop a one-worker pool runs — same tile function,
// disjoint output slices, no reordered reductions. Both arms run in
// this process (ScopedGlobalPool), whatever BAFFLE_THREADS says.
struct ParallelRun {
  std::vector<std::size_t> preds;  // model-major, models × samples
  std::vector<float> margins;      // model-major, models × samples
};

ParallelRun run_engine(MultiModelEval& engine,
                       const std::vector<std::vector<float>>& chain,
                       std::size_t samples, std::size_t workers) {
  ParallelRun run;
  run.preds.assign(chain.size() * samples, 0);
  run.margins.assign(chain.size() * samples, 0.0f);
  std::vector<MultiEvalModel> models;
  for (std::size_t v = 0; v < chain.size(); ++v) {
    models.push_back(
        {chain[v],
         std::span<std::size_t>(run.preds).subspan(v * samples, samples),
         std::span<float>(run.margins).subspan(v * samples, samples)});
  }
  const ScopedGlobalPool pool(workers);
  engine.predict_many(models);
  return run;
}

TEST(MultiModelEval, Fp32BitParityWithSequentialPath) {
  const MlpConfig arch{{32, 24, 10}};
  Rng rng(7);
  const auto chain = model_chain(arch, rng, 5);
  // 330 samples: 20 full panels plus a 10-column tail panel.
  const Matrix x = features_matrix(33, 32, 11);
  MultiModelEval engine(arch);
  engine.bind(x);
  ASSERT_EQ(engine.bound_samples(), x.rows());

  std::vector<std::size_t> batched(x.rows());
  for (const auto& params : chain) {
    predict_one(engine, params, batched);
    EXPECT_EQ(batched, oracle_predict(arch, params, x));
  }
}

TEST(MultiModelEval, PanelGroupsMatchSequentialPredsAndMarginsOnEveryPool) {
  // Sample counts around one panel (16), one panel group (64 = 4
  // panels) and one tile's panel block (256), with tail panels.
  const MlpConfig arch{{32, 64, 10}};
  Rng rng(61);
  const auto chain = model_chain(arch, rng, 3);
  for (std::size_t samples : {1, 15, 16, 17, 63, 64, 65, 180, 1000}) {
    Matrix x(samples, 32);
    for (float& v : x.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
    MultiModelEval engine(arch);
    engine.bind(x);
    for (std::size_t workers : {1, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << "samples=" << samples << " workers=" << workers);
      const ParallelRun run = run_engine(engine, chain, samples, workers);
      for (std::size_t v = 0; v < chain.size(); ++v) {
        std::vector<std::size_t> preds;
        std::vector<float> margins;
        oracle_preds_and_margins(arch, chain[v], x, preds, margins);
        ASSERT_EQ(preds, oracle_predict(arch, chain[v], x));
        const auto at = static_cast<std::ptrdiff_t>(v * samples);
        EXPECT_TRUE(std::equal(preds.begin(), preds.end(),
                               run.preds.begin() + at));
        EXPECT_EQ(std::memcmp(margins.data(), run.margins.data() + at,
                              samples * sizeof(float)),
                  0);
      }
    }
  }
}

TEST(MultiModelEval, Fp32ParityMultiLayer) {
  // Two hidden layers: the engine chains a ReLU layer's packed output
  // into the next ReLU layer, not just into the linear output layer.
  const MlpConfig arch{{16, 12, 14, 6}};
  Rng rng(9);
  const auto chain = model_chain(arch, rng, 3);
  const Matrix x = features_matrix(20, 16, 13);
  MultiModelEval engine(arch);
  engine.bind(x);

  std::vector<std::size_t> batched(x.rows());
  for (const auto& params : chain) {
    predict_one(engine, params, batched);
    EXPECT_EQ(batched, oracle_predict(arch, params, x));
  }
}

TEST(MultiModelEval, SingleSampleAndSingleRowPanels) {
  const MlpConfig arch{{8, 6, 4}};
  Rng rng(21);
  const auto chain = model_chain(arch, rng, 2);
  Rng data_rng(22);
  Matrix x(1, 8);
  for (float& v : x.flat()) v = static_cast<float>(data_rng.normal(0.0, 1.0));

  MultiModelEval engine(arch);
  engine.bind(x);
  std::vector<std::size_t> batched(1);
  for (const auto& params : chain) {
    predict_one(engine, params, batched);
    EXPECT_EQ(batched, oracle_predict(arch, params, x));
  }
}

TEST(MultiModelEval, PredictManySpansModelChunks) {
  const MlpConfig arch{{12, 10, 5}};
  Rng rng(31);
  // More models than kModelChunk, so the chunked panel-outer loop runs
  // at least twice.
  const std::size_t count = MultiModelEval::kModelChunk + 5;
  const auto chain = model_chain(arch, rng, count);
  Rng data_rng(32);
  Matrix x(50, 12);
  for (float& v : x.flat()) v = static_cast<float>(data_rng.normal(0.0, 1.0));

  MultiModelEval engine(arch);
  engine.bind(x);
  std::vector<std::vector<std::size_t>> preds(
      count, std::vector<std::size_t>(x.rows()));
  std::vector<MultiEvalModel> models;
  for (std::size_t v = 0; v < count; ++v) {
    models.push_back({chain[v], preds[v]});
  }
  engine.predict_many(models);
  for (std::size_t v = 0; v < count; ++v) {
    EXPECT_EQ(preds[v], oracle_predict(arch, chain[v], x));
  }
}

TEST(MultiModelEval, RebindReplacesDataset) {
  const MlpConfig arch{{10, 8, 3}};
  Rng rng(41);
  const auto chain = model_chain(arch, rng, 1);
  Rng data_rng(42);
  Matrix x1(30, 10), x2(17, 10);
  for (float& v : x1.flat()) v = static_cast<float>(data_rng.normal(0.0, 1.0));
  for (float& v : x2.flat()) v = static_cast<float>(data_rng.normal(0.0, 1.0));

  MultiModelEval engine(arch);
  engine.bind(x1);
  std::vector<std::size_t> preds1(x1.rows());
  predict_one(engine, chain[0], preds1);
  EXPECT_EQ(preds1, oracle_predict(arch, chain[0], x1));

  engine.bind(x2);
  EXPECT_EQ(engine.bound_samples(), 17u);
  std::vector<std::size_t> preds2(x2.rows());
  predict_one(engine, chain[0], preds2);
  EXPECT_EQ(preds2, oracle_predict(arch, chain[0], x2));
}

// The engine checks its output spans against the bound set, as the
// argmax it replaced checked its output length.
TEST(MultiModelEval, RejectsAPredictionSpanOfAnotherLength) {
  const MlpConfig arch{{4, 3}};
  Rng rng(51);
  const auto chain = model_chain(arch, rng, 1);
  const Matrix x(3, 4, 1.0f);
  MultiModelEval engine(arch);
  engine.bind(x);
  std::vector<std::size_t> short_preds(2);
  EXPECT_THROW(predict_one(engine, chain[0], short_preds),
               std::invalid_argument);
  std::vector<std::size_t> preds(3);
  std::vector<float> short_margins(2);
  const MultiEvalModel with_margins{chain[0], preds, short_margins};
  EXPECT_THROW(engine.predict_many({&with_margins, 1}), std::invalid_argument);
}

TEST(MultiModelEvalParallelParity, Fp32BytesEqualSerialAndSequential) {
  const MlpConfig arch{{32, 24, 10}};
  Rng rng(55);
  // Two model chunks × three panel blocks, so the parallel sweep has
  // genuinely independent tiles in both dimensions.
  const std::size_t count = MultiModelEval::kModelChunk + 5;
  const auto chain = model_chain(arch, rng, count);
  const Matrix x = features_matrix(60, 32, 56);  // 600 samples, 38 panels
  MultiModelEval engine(arch);
  engine.bind(x);

  const ParallelRun serial = run_engine(engine, chain, x.rows(), 1);
  const ParallelRun parallel = run_engine(engine, chain, x.rows(), 4);
  EXPECT_EQ(parallel.preds, serial.preds);
  // Margins are floats: require bit equality, not approximate equality.
  ASSERT_EQ(parallel.margins.size(), serial.margins.size());
  EXPECT_EQ(std::memcmp(parallel.margins.data(), serial.margins.data(),
                        serial.margins.size() * sizeof(float)),
            0);
  for (std::size_t v = 0; v < count; ++v) {
    EXPECT_EQ(std::vector<std::size_t>(
                  serial.preds.begin() + static_cast<std::ptrdiff_t>(
                                             v * x.rows()),
                  serial.preds.begin() + static_cast<std::ptrdiff_t>(
                                             (v + 1) * x.rows())),
              oracle_predict(arch, chain[v], x));
  }
}

}  // namespace
}  // namespace baffle
