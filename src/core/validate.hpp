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
// The validator is incremental across rounds (DESIGN.md §12): it keeps
// one record of the look-back window it last scored — each model's
// version and error profile (all Algorithm 2 reads of a model), the ℓ
// variation points, their LOF window and τ — and a committed
// candidate's profile is promoted (notify_commit) so it is never
// recomputed when it enters a later window. When the window has moved
// by s models since the validator last ran (s = 1 for the server, about
// one in five rounds for a sampled vision client), the record's
// retained slots, its variation points, the LOF window's distances and
// its neighbour orders slide down in place; of the s new models only
// those that are not the promoted candidate are evaluated, and only
// the s new points are computed: O(ℓ·s) distances, a sort of each new
// point's order and a merge into each retained one. τ's leave-one-out
// scores, φ, the profile tallies and the counters run on scratch the
// validator keeps, so a steady-state validate() allocates nothing
// outside the engine pass, and its validator.* and prediction_cache.*
// counts reach MetricsRegistry in one call. All of it is bit-identical
// to recomputing Algorithm 2 from scratch, which the parity tests do as
// their oracle.
//
// Lock scope (DESIGN.md §17): a validate() call runs in three phases —
// plan (under mu_: drop the stale pending candidate, find the new
// window's overlap with the record, list the models neither retained
// nor promoted), evaluate (OUTSIDE mu_: one batched MultiModelEval pass
// over those models plus the candidate, fanned out across the pool),
// and score (under mu_ again: slide the record and tally the new
// profiles into it, then φ/τ). No model is ever evaluated under mu_, so
// it is never held across a pool wait — a help-draining waiter can
// steal ANOTHER validator's validate task, and two validators stealing
// each other's work while holding their own locks would deadlock.

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/history.hpp"
#include "core/lof.hpp"
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
};

/// What a validator has done, as it reports to MetricsRegistry: each
/// field under its validator.* name, and the profile tallies under the
/// prediction_cache.* names.
struct ValidatorCounts {
  std::uint64_t validations = 0;
  std::uint64_t model_materializations = 0;
  std::uint64_t batched_evals = 0;
  /// Committed candidates whose profile was kept rather than evaluated
  /// again; also reported as prediction_cache.promotions.
  std::uint64_t candidate_reuse = 0;
  /// Profile reads (prediction_cache.hits): two per new variation point,
  /// one for the newest model on a scored round, two per delta for
  /// ablation A1.
  std::uint64_t cache_hits = 0;
  /// Window models evaluated because the validator held no profile for
  /// them (prediction_cache.misses).
  std::uint64_t cache_misses = 0;
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
  /// The validator keeps D_i's labels and its features packed into the
  /// engine's sample panels, not a copy of `data`.
  Validator(const Dataset& data, MlpConfig arch, ValidatorConfig config);

  // Movable so enclosing defenses can be returned by value during
  // single-threaded setup. The mutex is not moved — each validator owns
  // a fresh one — and moving a validator another thread is using is a
  // race, like moving any synchronized container.
  Validator(Validator&& other) noexcept;
  Validator& operator=(Validator&& other) noexcept;
  Validator(const Validator&) = delete;
  Validator& operator=(const Validator&) = delete;

  /// Runs Algorithm 2. `history` is the zero-copy window oldest→newest
  /// (up to ℓ+1 models, from ModelHistory::window_shared; a longer
  /// window throws ContractViolation). A version must name one model:
  /// the validator keeps the models a window shares with the last one
  /// it scored, matched by version.
  ValidationOutcome validate(const ParamVec& candidate,
                             const ModelWindow& history);

  /// Round feedback: the candidate last scored by validate() was
  /// committed as `version`. When its parameters match `committed`
  /// byte for byte (same_bytes), the profile computed during validation
  /// is promoted under `version` — the next window that holds it then
  /// reuses it instead of redoing the forward pass.
  void notify_commit(std::uint64_t version, const ParamVec& committed);

  /// Round feedback: the candidate was rejected (rolled back); its
  /// pending profile is discarded.
  void notify_reject();

  /// The profile this validator holds for `version` — a model of the
  /// window it last scored, or the promoted candidate — or nullptr.
  /// Post-run inspection (tests): the pointer escapes the lock
  /// deliberately, and stays valid until the next validate() or commit.
  const ErrorProfile* held_profile(std::uint64_t version) const;
  const ValidatorConfig& config() const { return config_; }
  ValidatorCounts counts() const {
    MutexLock lock(mu_);
    return counts_;
  }

 private:
  /// Moves every member but the engine (which the move operations
  /// transfer themselves: it has no empty state to start from).
  void move_state_from(Validator& other) noexcept;

  /// What the round's single engine pass must evaluate, decided under
  /// mu_ in phase 1 and read by phases 2 and 3.
  struct EvalPlan {
    /// The held window's first `drop` models leave; the rest open the
    /// new window. Of the new window's models after them, the promoted
    /// candidate is reused and every other one is `missed`.
    std::size_t drop = 0;
    std::vector<std::size_t> missed;  // indices into the history window
    /// The candidate is evaluated only on rounds that will score it
    /// (enough history — the same predicate in plan & score).
    bool eval_candidate = false;
  };
  /// Phase 1 (locked): drop the stale pending candidate, find the new
  /// window's overlap with the held one, list the models it must
  /// evaluate.
  void plan_round(const ModelWindow& history) BAFFLE_REQUIRES(mu_);
  /// Phase 2 (UNLOCKED): one batched predict_many over the plan.
  void run_plan(const ParamVec& candidate, const ModelWindow& history);
  /// Phase 3 (locked): slides the held window onto `history`, tallies
  /// the plan's profiles into its new slots and the pending candidate,
  /// and moves the variation points, LOF window and τ with it.
  void deposit_round(const ModelWindow& history) BAFFLE_REQUIRES(mu_);
  /// Phase 3 (locked): scores the candidate against the held window.
  ValidationOutcome score_round(const ParamVec& candidate)
      BAFFLE_REQUIRES(mu_);
  /// Adds what this validator tallied since the last report to
  /// MetricsRegistry, in one call.
  void report_counts() BAFFLE_REQUIRES(mu_);

  std::vector<int> labels_;  // D_i's labels; its features live in engine_
  std::size_t num_classes_ = 0;
  ValidatorConfig config_;

  // One lock serializes a validator's cross-round state: the held
  // window, the pending and promoted candidates mutate together, and
  // the commit/reject feedback must be ordered against scoring. The
  // ENGINE deliberately runs outside it (see header comment): no model
  // is evaluated while mu_ is held.
  mutable Mutex mu_;
  // The candidate last scored, kept until the round's commit/reject
  // feedback; its buffers are reused from round to round.
  bool pending_ BAFFLE_GUARDED_BY(mu_) = false;
  ParamVec pending_params_ BAFFLE_GUARDED_BY(mu_);
  ErrorProfile pending_profile_ BAFFLE_GUARDED_BY(mu_);
  // The last committed candidate's profile, under its version, until
  // the next window takes it in.
  bool promoted_ BAFFLE_GUARDED_BY(mu_) = false;
  std::uint64_t promoted_version_ BAFFLE_GUARDED_BY(mu_) = 0;
  ErrorProfile promoted_profile_ BAFFLE_GUARDED_BY(mu_);
  ValidatorCounts counts_ BAFFLE_GUARDED_BY(mu_);
  // counts_ as last reported to MetricsRegistry.
  ValidatorCounts reported_ BAFFLE_GUARDED_BY(mu_);

  // Engine-phase state, deliberately NOT guarded by mu_. The engine is
  // immutable after its setup-time bind() apart from an internally
  // synchronized lazy mirror build, and the plan and batch scratch
  // below are confined to the single in-flight validate(): validate()
  // calls on one validator are externally serialized (defense.evaluate
  // invokes each validator once per round; rounds are chained by the
  // task graph), a contract enforced at runtime by `validating_`.
  MultiModelEval engine_;
  EvalPlan plan_;
  std::vector<std::size_t> batch_preds_;  // plan evals x samples
  std::vector<MultiEvalModel> batch_models_;
  std::atomic<bool> validating_{false};

  // The window last scored (DESIGN.md §12), moved with the history
  // window and left untouched across rejected rounds. A window of fewer
  // than two models yields no variation point and holds nothing.
  std::vector<std::uint64_t> window_versions_ BAFFLE_GUARDED_BY(mu_);
  // One profile per held version; the slots past them keep their
  // storage for the next new models.
  std::vector<ErrorProfile> window_profiles_ BAFFLE_GUARDED_BY(mu_);
  // One variation point per consecutive pair, 2|Y| values each.
  std::vector<double> window_points_ BAFFLE_GUARDED_BY(mu_);
  LofWindow lof_window_ BAFFLE_GUARDED_BY(mu_);
  double window_tau_ BAFFLE_GUARDED_BY(mu_) = 0.0;
  std::size_t window_tau_count_ BAFFLE_GUARDED_BY(mu_) = 0;

  // Scoring scratch, kept so a steady-state round allocates nothing.
  std::vector<std::size_t> tally_ BAFFLE_GUARDED_BY(mu_);
  std::vector<double> candidate_point_ BAFFLE_GUARDED_BY(mu_);
  std::vector<double> candidate_row_
      BAFFLE_GUARDED_BY(mu_);  // candidate→window dists
  std::vector<double> ablation_values_ BAFFLE_GUARDED_BY(mu_);
  LofScratch lof_scratch_ BAFFLE_GUARDED_BY(mu_);
};

/// Parameters of Algorithm 2 as pure functions (unit-tested directly).
std::size_t lof_k_for_lookback(std::size_t lookback);      // ⌈ℓ/2⌉
std::size_t tau_window_for_lookback(std::size_t lookback);  // ⌊ℓ/4⌋

}  // namespace baffle
