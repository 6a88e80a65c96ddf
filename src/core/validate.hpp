#pragma once
// VALIDATE (Algorithm 2): the misclassification-analysis instantiation
// of the model-validation routine.
//
// Given the candidate global model G, the history (𝒢^0, …, 𝒢^ℓ) of
// recently accepted models, and the validator's private data D:
//   1. compute the error-variation points v_i = v(𝒢^{i-1}, 𝒢^i, D) for
//      i = 1..ℓ and the candidate's point v_{ℓ+1} = v(𝒢^ℓ, G, D);
//   2. score each of the last ⌊ℓ/4⌋ *trusted* points by its LOF against
//      the points that preceded it, with k = ⌈ℓ/2⌉; their mean is the
//      rejection threshold τ;
//   3. vote "poisoned" iff LOF(v_{ℓ+1}) > τ.
//
// Any entity holding labelled data can run this — clients on their local
// shards (BAFFLE-C), the server on its holdout (BAFFLE-S), or both
// (BAFFLE) — and the adaptive attacker reuses it verbatim as its
// self-check (src/attack/adaptive.hpp).
//
// The validator is incremental across rounds (DESIGN.md §12): variation
// points are cached per (prev_version, next_version) pair, the pairwise
// distance matrix behind the LOF tests shifts by one row/column per
// round, and a committed candidate's confusion matrix is promoted into
// the prediction cache (notify_commit) so it is never recomputed as
// next round's history.back(). All of it is bit-identical to fresh
// recomputation; `ValidatorConfig::incremental = false` selects the
// recompute-everything path (benchmarks, parity tests).
//
// Lock scope (DESIGN.md §17): a validate() call runs in three phases —
// plan (under mu_: shift the pending memo, list uncached history
// versions, check the repeat-candidate memo), evaluate (OUTSIDE mu_:
// one batched MultiModelEval pass over every uncached model plus the
// candidate, fanned out across the pool), and score (under mu_ again:
// deposit the confusion matrices, then LOF/τ/φ). The engine therefore
// never waits on the thread pool while mu_ is held — a help-draining
// waiter can steal ANOTHER validator's validate task, and two
// validators stealing each other's work while holding their own locks
// would deadlock.

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/history.hpp"
#include "core/lof.hpp"
#include "core/prediction_cache.hpp"
#include "nn/multi_eval.hpp"
#include "util/sync.hpp"

namespace baffle {

/// Detection statistic (ablations of the paper's design choice; the
/// paper's method is kErrorVariationLof).
enum class ValidationMethod {
  /// Per-class error-variation point scored by LOF (Algorithm 2).
  kErrorVariationLof,
  /// Ablation A1: plain global-accuracy deltas, z-score threshold —
  /// the "measure model accuracy" strawman the paper argues a backdoor
  /// can be optimized to evade.
  kGlobalAccuracyZScore,
  /// Ablation A2: same per-class variation points, but flagged by the
  /// z-score of the point's norm instead of LOF.
  kVariationNormZScore,
};

const char* validation_method_name(ValidationMethod method);

struct ValidatorConfig {
  /// Look-back window ℓ: how many accepted models inform the decision.
  std::size_t lookback = 20;
  /// Minimum usable history (ℓ+1 models → ℓ variation points). With
  /// fewer than `min_variations` points the validator abstains (votes
  /// "clean"): there is not yet a trend to deviate from.
  std::size_t min_variations = 6;
  ValidationMethod method = ValidationMethod::kErrorVariationLof;
  /// z-score cutoff for the ablation methods.
  double zscore_threshold = 2.5;
  /// Calibration margin on the LOF rejection rule: vote "poisoned" iff
  /// φ > tau_margin·τ. τ is the mean LOF of recent *trusted* points, so
  /// with margin 1 roughly half of all benign rounds on a large, finely
  /// resolved validation set sit above it; a small margin restores the
  /// paper's benign false-vote rate while leaving the order-of-magnitude
  /// LOF spikes of poisoned updates detectable.
  double tau_margin = 1.3;
  /// Reuse cross-round state (cached variation points, incremental
  /// distance matrix, candidate-CM promotion). Scores are bit-identical
  /// either way; `false` recomputes everything per round — the pre-PR
  /// baseline the benchmarks and parity tests compare against.
  bool incremental = true;
};

struct ValidationOutcome {
  int vote = 0;          // 1 = poisoned, 0 = clean
  double phi = 0.0;      // LOF of the candidate's variation point
  double tau = 0.0;      // rejection threshold
  bool abstained = false;  // history too short to judge
};

class Validator {
 public:
  /// `data` is the validator's private labelled dataset D_i; `arch` must
  /// match the global model (needed to materialize parameter vectors).
  Validator(Dataset data, MlpConfig arch, ValidatorConfig config);

  // Movable so enclosing defenses can be returned by value during
  // single-threaded setup. The mutex is not moved — each validator owns
  // a fresh one — and moving a validator another thread is using is a
  // race, like moving any synchronized container.
  Validator(Validator&& other) noexcept;
  Validator& operator=(Validator&& other) noexcept;
  Validator(const Validator&) = delete;
  Validator& operator=(const Validator&) = delete;

  /// Runs Algorithm 2. `history` is oldest→newest (up to ℓ+1 models,
  /// from ModelHistory::window; a longer window throws
  /// ContractViolation). Confusion matrices for history models are
  /// cached across rounds by version.
  ValidationOutcome validate(const ParamVec& candidate,
                             std::span<const GlobalModel> history);

  /// As above, over the zero-copy window (ModelHistory::window_shared).
  ValidationOutcome validate(const ParamVec& candidate,
                             const ModelWindow& history);

  /// Round feedback: the candidate last scored by validate() was
  /// committed as `version`. When its parameters match `committed`
  /// bit-for-bit, the confusion matrix computed during validation is
  /// promoted into the cache under `version` — next round's history
  /// pass then hits instead of redoing the forward pass.
  void notify_commit(std::uint64_t version, const ParamVec& committed);

  /// Round feedback: the candidate was rejected (rolled back); its
  /// pending confusion matrix is discarded.
  void notify_reject();

  const Dataset& data() const { return data_; }
  /// Post-run inspection handle (tests, reports). The reference escapes
  /// the lock deliberately: callers read it only after the rounds that
  /// mutate this validator have finished.
  const PredictionCache& cache() const {
    MutexLock lock(mu_);
    return cache_;
  }
  const ValidatorConfig& config() const { return config_; }

 private:
  /// (version, params) view of one history entry; lets both validate
  /// overloads share the implementation without materializing models.
  struct HistoryRef {
    std::uint64_t version = 0;
    const ParamVec* params = nullptr;
  };

  /// Candidate evaluation retained between validate() and the round's
  /// commit/reject feedback.
  struct PendingCandidate {
    ParamVec params;
    ConfusionMatrix cm;
  };

  /// What the round's single engine pass must evaluate, decided under
  /// mu_ in phase 1 and carried across the unlocked phase 2.
  struct EvalPlan {
    std::vector<std::size_t> missed;  // indices into the history span
    bool eval_candidate = false;
    /// Filled by the memo hit in phase 1 or by the engine in phase 2;
    /// empty only when the round will abstain before scoring the
    /// candidate (too little history — same predicate in plan & score).
    std::optional<ConfusionMatrix> candidate_cm;
  };

  ValidationOutcome validate_refs(const ParamVec& candidate,
                                  std::span<const HistoryRef> history);
  /// Phase 1 (locked): memo shift + repeat-candidate check + the list
  /// of uncached history versions.
  EvalPlan plan_round(const ParamVec& candidate,
                      std::span<const HistoryRef> history)
      BAFFLE_REQUIRES(mu_);
  /// Phase 2 (UNLOCKED): one batched predict_many over the plan.
  void run_plan(const ParamVec& candidate,
                std::span<const HistoryRef> history, EvalPlan& plan,
                std::vector<ConfusionMatrix>& missed_cms);
  /// Phase 3 (locked): scoring on a fully-cached window.
  ValidationOutcome score_round(const ParamVec& candidate,
                                std::span<const HistoryRef> history,
                                EvalPlan& plan) BAFFLE_REQUIRES(mu_);
  ValidationOutcome validate_lof_incremental(
      const ParamVec& candidate, std::span<const HistoryRef> history,
      EvalPlan& plan) BAFFLE_REQUIRES(mu_);
  void sync_window(std::span<const HistoryRef> history) BAFFLE_REQUIRES(mu_);
  void stash_pending(const ParamVec& candidate, const ConfusionMatrix& cm)
      BAFFLE_REQUIRES(mu_);

  /// Tallies a confusion matrix from per-sample predictions (sample
  /// order identical to evaluate_confusion's).
  ConfusionMatrix confusion_from_preds(
      std::span<const std::size_t> preds) const;
  /// One fused-engine evaluation through MultiModelEval::predict_into,
  /// which never touches the pool (counts a model materialization).
  /// Under-lock fallback only — it must not wait on the pool — and
  /// after plan/run deposits, only reachable through a cache eviction
  /// race that the window size rules out in practice.
  ConfusionMatrix evaluate_params(const ParamVec& params)
      BAFFLE_REQUIRES(mu_);
  const ConfusionMatrix& evaluate_history(const HistoryRef& snapshot)
      BAFFLE_REQUIRES(mu_);

  Dataset data_;
  ValidatorConfig config_;

  // One lock serializes a validator's incremental state: the prediction
  // cache, the pending/repeat-candidate memos and the incremental LOF
  // window mutate together, and the commit/reject feedback must be
  // ordered against scoring. The ENGINE deliberately runs outside it
  // (see header comment): mu_ is never held across a pool wait.
  mutable Mutex mu_;
  PredictionCache cache_ BAFFLE_GUARDED_BY(mu_);
  std::optional<PendingCandidate> pending_ BAFFLE_GUARDED_BY(mu_);
  std::optional<PendingCandidate> prev_candidate_
      BAFFLE_GUARDED_BY(mu_);  // repeat-candidate memo
  std::vector<std::size_t> preds_scratch_ BAFFLE_GUARDED_BY(mu_);

  // Engine-phase state, deliberately NOT guarded by mu_. The engine is
  // immutable after its setup-time bind() apart from an internally
  // synchronized lazy mirror build, and the batch scratch below is
  // confined to the single in-flight validate(): validate() calls on
  // one validator are externally serialized (defense.evaluate invokes
  // each validator once per round; rounds are chained by the task
  // graph), a contract enforced at runtime by `validating_`.
  MultiModelEval engine_;
  std::vector<std::size_t> batch_preds_;  // plan evals x samples
  std::vector<MultiEvalModel> batch_models_;
  std::atomic<bool> validating_{false};

  // Incremental LOF state (valid for the window identified by
  // window_keys_; rebuilt — reusing overlapping entries — when the
  // history window shifts, and left untouched across rejected rounds).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> window_keys_
      BAFFLE_GUARDED_BY(mu_);
  std::vector<VariationPoint> window_points_ BAFFLE_GUARDED_BY(mu_);
  LofWindow lof_window_ BAFFLE_GUARDED_BY(mu_);
  double window_tau_ BAFFLE_GUARDED_BY(mu_) = 0.0;
  std::size_t window_tau_count_ BAFFLE_GUARDED_BY(mu_) = 0;
  std::vector<double> candidate_row_
      BAFFLE_GUARDED_BY(mu_);  // scratch: candidate→window dists
};

/// Parameters of Algorithm 2 as pure functions (unit-tested directly).
std::size_t lof_k_for_lookback(std::size_t lookback);      // ⌈ℓ/2⌉
std::size_t tau_window_for_lookback(std::size_t lookback);  // ⌊ℓ/4⌋

}  // namespace baffle
