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

#include <deque>
#include <vector>

#include "data/synth.hpp"
#include "metrics/confusion.hpp"
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
    arch_ = MlpConfig{{cfg.dim, 16, cfg.num_classes}, Activation::kRelu};
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

  static void expect_same_cm(const ConfusionMatrix& a,
                             const ConfusionMatrix& b) {
    ASSERT_EQ(a.num_classes(), b.num_classes());
    ASSERT_EQ(a.total(), b.total());
    for (std::size_t t = 0; t < a.num_classes(); ++t) {
      for (std::size_t p = 0; p < a.num_classes(); ++p) {
        ASSERT_EQ(a.count(static_cast<int>(t), static_cast<int>(p)),
                  b.count(static_cast<int>(t), static_cast<int>(p)))
            << "cm[" << t << "][" << p << "]";
      }
    }
  }

  SynthTask task_;
  MlpConfig arch_;
  ParamVec params_;
  Dataset data_;
};

TEST_F(BatchedValidate, ColdWindowBatchedMatchesWarmSequential) {
  // The warm validator sees the window grow one model per round, so its
  // prefetch never finds ≥2 uncached models and every evaluation takes
  // the sequential get_or_eval path. The cold validator receives the
  // full window at once and batches it. Same inputs, same bits out.
  for (std::size_t ell : {std::size_t{2}, std::size_t{10}, std::size_t{40}}) {
    SCOPED_TRACE(ell);
    Validator warm = make_validator(ell);
    std::deque<GlobalModel> window;
    std::uint64_t version = 0;
    window.push_back({version, params_});
    Rng rng(100 + ell);
    ValidationOutcome warm_out;
    std::vector<GlobalModel> history;
    ParamVec candidate;
    for (std::size_t round = 0; round < ell + 4; ++round) {
      history.assign(window.begin(), window.end());
      candidate = next_params(rng);
      warm_out = warm.validate(candidate, history);
      ++version;
      window.push_back({version, candidate});
      while (window.size() > ell + 1) window.pop_front();
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
    // The cold window really went through predict_many, and the
    // out-of-band deposits kept miss accounting identical to the
    // sequential path: one miss per window model (the candidate eval is
    // not a cache miss, and re-lookups of deposited entries are hits).
    EXPECT_GT(MetricsRegistry::global().counter("validator.batched_evals"),
              batched_before);
    EXPECT_EQ(cold.cache().misses(), history.size());
  }
}

TEST_F(BatchedValidate, BatchedCmsBitIdenticalToDirectEvaluation) {
  // Every confusion matrix the batched prefetch deposited must equal a
  // plain per-model evaluate_confusion on the same dataset.
  const std::size_t ell = 10;
  Validator v = make_validator(ell);
  std::vector<GlobalModel> history;
  Rng rng(55);
  for (std::uint64_t ver = 0; ver <= ell; ++ver) {
    history.push_back({ver, params_});
    params_ = next_params(rng);
  }
  const ParamVec candidate = next_params(rng);
  const auto outcome = v.validate(candidate, history);
  EXPECT_FALSE(outcome.abstained);

  Mlp model(arch_);
  MlpEvalWorkspace ws;
  for (const auto& entry : history) {
    const ConfusionMatrix* cached = v.cache().find(entry.version);
    ASSERT_NE(cached, nullptr) << "version " << entry.version;
    model.set_parameters(entry.params);
    expect_same_cm(evaluate_confusion(model, data_, ws), *cached);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(BatchedValidate, RepeatCandidateShortCircuitsMaterialization) {
  // The adaptive attacker's self-check re-validates the same candidate;
  // a bit-equal repeat must reuse the previous confusion matrix instead
  // of re-running inference — with identical outcomes.
  const std::size_t ell = 8;
  Validator v = make_validator(ell);
  std::vector<GlobalModel> history;
  Rng rng(66);
  for (std::uint64_t ver = 0; ver <= ell; ++ver) {
    history.push_back({ver, params_});
    params_ = next_params(rng);
  }
  const ParamVec candidate = next_params(rng);
  const auto first = v.validate(candidate, history);
  const auto materialized =
      MetricsRegistry::global().counter("validator.model_materializations");
  const auto reused_before =
      MetricsRegistry::global().counter("validator.candidate_cm_reuse");
  const auto second = v.validate(candidate, history);
  expect_same(first, second);
  EXPECT_EQ(
      MetricsRegistry::global().counter("validator.model_materializations"),
      materialized);
  EXPECT_GT(MetricsRegistry::global().counter("validator.candidate_cm_reuse"),
            reused_before);

  // A different candidate must NOT be served from the memo.
  const ParamVec other = next_params(rng);
  v.validate(other, history);
  EXPECT_GT(
      MetricsRegistry::global().counter("validator.model_materializations"),
      materialized);
}

TEST_F(BatchedValidate, ParallelEvalParityAcrossRoundsAndArms) {
  // The global pool's size only changes which threads execute the
  // engine's tiles (DESIGN.md §17): votes, φ, τ, abstentions and every
  // cached confusion matrix must be bit-identical on one worker (the
  // inline tile loop) and on four, on either kernel dispatch arm. The
  // validator holds both splits (450 samples, two panel blocks), so
  // every engine pass has more than one tile to spread.
  const std::size_t ell = 10;
  Dataset data = task_.test;
  data.merge(task_.train);
  ASSERT_GT(data.size(), 256u);  // one panel block: 16 panels x 16 samples
  const ParamVec start = params_;
  std::deque<GlobalModel> window;
  // Drives `v` through the same committed-round sequence on a
  // `workers`-thread pool; returns its outcomes and leaves the final
  // history window in `window`.
  const auto run_arm = [&](Validator& v, std::size_t workers) {
    const ScopedGlobalPool pool(workers);
    params_ = start;
    window.assign(1, GlobalModel{0, params_});
    std::uint64_t version = 0;
    Rng rng(88);
    std::vector<ValidationOutcome> outcomes;
    for (std::size_t round = 0; round < ell + 5; ++round) {
      const std::vector<GlobalModel> history(window.begin(), window.end());
      const ParamVec candidate = next_params(rng);
      outcomes.push_back(v.validate(candidate, history));
      ++version;
      window.push_back({version, candidate});
      while (window.size() > ell + 1) window.pop_front();
      v.notify_commit(version, candidate);
      params_ = candidate;
    }
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
    const ConfusionMatrix* a = ser.cache().find(entry.version);
    const ConfusionMatrix* b = par.cache().find(entry.version);
    EXPECT_EQ(a == nullptr, b == nullptr) << "version " << entry.version;
    if (a != nullptr && b != nullptr) expect_same_cm(*a, *b);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace baffle
