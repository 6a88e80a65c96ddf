// Validator-level parity of the batched multi-model evaluation engine
// (DESIGN.md §14).
//
// A cold-window validator routes every uncached history model through
// one MultiModelEval::predict_many pass; a warm validator that saw the
// same window grow round-by-round only ever evaluates one model at a
// time. Both must produce bit-identical votes/φ/τ — the batched pass is
// an execution-schedule change, not a numeric one.

#include "core/validate.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "data/synth.hpp"
#include "metrics/confusion.hpp"
#include "support/predict_oracle.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace baffle {
namespace {

class BatchedValidate : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(404);
    SynthTaskConfig cfg = synth_vision10_config();
    cfg.train_per_class = 25;
    cfg.test_per_class = 20;
    task_ = make_synth_task(cfg, rng);
    arch_ = MlpConfig{{cfg.dim, 16, cfg.num_classes}};
    Mlp model(arch_);
    model.init(rng);
    params_ = model.parameters();
    Rng data_rng(9);
    data_ = task_.test.sample(120, data_rng);
  }

  ParamVec next_params(Rng& rng, float step = 0.05f) {
    ParamVec out = params_;
    for (float& p : out) p += static_cast<float>(rng.normal(0.0, step));
    return out;
  }

  Validator make_validator(std::size_t lookback) {
    return make_validator(lookback, data_);
  }
  Validator make_validator(std::size_t lookback, const Dataset& data) {
    ValidatorConfig cfg;
    cfg.lookback = lookback;
    cfg.min_variations = 2;
    return Validator(data, arch_, cfg);
  }

  static void expect_same(const ValidationOutcome& a,
                          const ValidationOutcome& b) {
    EXPECT_EQ(a.vote, b.vote);
    EXPECT_EQ(a.phi, b.phi);  // bit-exact, not just approximately equal
    EXPECT_EQ(a.tau, b.tau);
    EXPECT_EQ(a.abstained, b.abstained);
  }

  static void expect_same_profile(const ErrorProfile& a,
                                  const ErrorProfile& b) {
    EXPECT_EQ(a.errors, b.errors);  // bit-exact: counts divided once
    EXPECT_EQ(a.accuracy, b.accuracy);
  }

  SynthTask task_;
  MlpConfig arch_;
  ParamVec params_;
  Dataset data_;
};

TEST_F(BatchedValidate, ColdWindowBatchedMatchesWarmSequential) {
  // The warm validator sees the window grow one model per round, so its
  // engine pass never finds ≥2 uncached models and evaluates one model
  // at a time. The cold validator receives the full window at once and
  // batches it. Same inputs, same bits out.
  for (std::size_t ell : {std::size_t{2}, std::size_t{10}, std::size_t{40}}) {
    SCOPED_TRACE(ell);
    Validator warm = make_validator(ell);
    ModelHistory window(ell + 1);
    std::uint64_t version = 0;
    window.push(version, params_);
    Rng rng(100 + ell);
    ValidationOutcome warm_out;
    ModelWindow history;
    ParamVec candidate;
    for (std::size_t round = 0; round < ell + 4; ++round) {
      history = window.window_shared(ell + 1);
      candidate = next_params(rng);
      warm_out = warm.validate(candidate, history);
      ++version;
      window.push(version, candidate);
      warm.notify_commit(version, candidate);
      params_ = candidate;
    }

    Validator cold = make_validator(ell);
    const auto batched_before =
        MetricsRegistry::global().counter("validator.batched_evals");
    const auto cold_out = cold.validate(candidate, history);
    expect_same(warm_out, cold_out);
    if (ell >= 10) {
      EXPECT_FALSE(cold_out.abstained);
    }
    // The cold window really went through one batched pass, with one
    // miss per window model (the candidate eval is not a cache miss, and
    // re-lookups of deposited entries are hits).
    EXPECT_GT(MetricsRegistry::global().counter("validator.batched_evals"),
              batched_before);
    EXPECT_EQ(cold.counts().cache_misses, history.size());
  }
}

TEST_F(BatchedValidate, BatchedCmsBitIdenticalToDirectEvaluation) {
  // Every profile the batched pass deposited must carry the bits of
  // the inference oracle's confusion matrix on the same dataset.
  const std::size_t ell = 10;
  Validator v = make_validator(ell);
  ModelHistory window(ell + 1);
  Rng rng(55);
  for (std::uint64_t ver = 0; ver <= ell; ++ver) {
    window.push(ver, params_);
    params_ = next_params(rng);
  }
  const ModelWindow history = window.window_shared(ell + 1);
  const ParamVec candidate = next_params(rng);
  const auto outcome = v.validate(candidate, history);
  EXPECT_FALSE(outcome.abstained);

  Mlp model(arch_);
  for (const auto& entry : history) {
    const ErrorProfile* cached = v.held_profile(entry->version);
    ASSERT_NE(cached, nullptr) << "version " << entry->version;
    model.set_parameters(entry->params);
    const ConfusionMatrix cm = oracle_confusion(model, data_);
    std::vector<double> errors = cm.source_focused_errors();
    const std::vector<double> target = cm.target_focused_errors();
    errors.insert(errors.end(), target.begin(), target.end());
    expect_same_profile({errors, cm.accuracy()}, *cached);
  }
}

TEST_F(BatchedValidate, ParallelEvalParityAcrossRoundsAndArms) {
  // The global pool's size only changes which threads execute the
  // engine's tiles (DESIGN.md §17): votes, φ, τ, abstentions and every
  // cached error profile must be bit-identical on one worker (the
  // inline tile loop) and on four, on either kernel dispatch arm. The
  // validator holds both splits (450 samples, two panel blocks), so
  // every engine pass has more than one tile to spread.
  const std::size_t ell = 10;
  Dataset data = task_.test;
  data.merge(task_.train);
  ASSERT_GT(data.size(), 256u);  // one panel block: 16 panels x 16 samples
  const ParamVec start = params_;
  ModelWindow window;
  // Drives `v` through the same committed-round sequence on a
  // `workers`-thread pool; returns its outcomes and leaves the final
  // history window in `window`.
  const auto run_arm = [&](Validator& v, std::size_t workers) {
    const ScopedGlobalPool pool(workers);
    params_ = start;
    ModelHistory history(ell + 1);
    history.push(0, params_);
    std::uint64_t version = 0;
    Rng rng(88);
    std::vector<ValidationOutcome> outcomes;
    for (std::size_t round = 0; round < ell + 5; ++round) {
      const ParamVec candidate = next_params(rng);
      outcomes.push_back(
          v.validate(candidate, history.window_shared(ell + 1)));
      ++version;
      history.push(version, candidate);
      v.notify_commit(version, candidate);
      params_ = candidate;
    }
    window = history.window_shared(ell + 1);
    return outcomes;
  };
  Validator ser = make_validator(ell, data);
  Validator par = make_validator(ell, data);
  const auto ref = run_arm(ser, 1);
  const auto got = run_arm(par, 4);

  ASSERT_EQ(ref.size(), got.size());
  std::size_t non_abstained = 0;
  for (std::size_t round = 0; round < ref.size(); ++round) {
    SCOPED_TRACE(round);
    expect_same(ref[round], got[round]);
    if (!ref[round].abstained) ++non_abstained;
  }
  ASSERT_GT(non_abstained, 4u);
  for (const auto& entry : window) {
    const ErrorProfile* a = ser.held_profile(entry->version);
    const ErrorProfile* b = par.held_profile(entry->version);
    EXPECT_EQ(a == nullptr, b == nullptr) << "version " << entry->version;
    if (a != nullptr && b != nullptr) expect_same_profile(*a, *b);
  }
}

}  // namespace
}  // namespace baffle
