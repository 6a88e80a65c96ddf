#include "core/validate.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <utility>

#include "fl/update.hpp"
#include "util/contracts.hpp"
#include "util/metric_names.hpp"
#include "util/metrics.hpp"
#include "util/stats.hpp"

namespace baffle {

const char* validation_method_name(ValidationMethod method) {
  switch (method) {
    case ValidationMethod::kErrorVariationLof: return "error-variation+LOF";
    case ValidationMethod::kGlobalAccuracyZScore: return "global-accuracy";
    case ValidationMethod::kVariationNormZScore: return "variation+zscore";
  }
  return "?";
}

std::size_t lof_k_for_lookback(std::size_t lookback) {
  return (lookback + 1) / 2;  // ⌈ℓ/2⌉
}

std::size_t tau_window_for_lookback(std::size_t lookback) {
  return lookback / 4;  // ⌊ℓ/4⌋
}

Validator::Validator(const Dataset& data, MlpConfig arch,
                     ValidatorConfig config)
    : labels_(data.labels()),
      num_classes_(data.num_classes()),
      config_(config),
      engine_(std::move(arch)) {
  BAFFLE_CHECK(config.lookback >= 2,
               "look-back window must cover at least 2 accepted models");
  BAFFLE_CHECK(config.min_variations >= 1,
               "abstention threshold must require at least one variation");
  BAFFLE_CHECK(!data.empty(), "validator needs a non-empty dataset");
  engine_.bind(data.features());
}

// Move transfers the state wholesale without touching either lock:
// moves happen only in single-threaded setup, before any concurrent use
// (class contract above), so there is no capability to hold and the
// `validating_` flag of a moved-from validator is necessarily clear.
Validator::Validator(Validator&& other) noexcept
    : engine_(std::move(other.engine_)) {
  move_state_from(other);
}

Validator& Validator::operator=(Validator&& other) noexcept {
  if (this == &other) return *this;
  engine_ = std::move(other.engine_);
  move_state_from(other);
  return *this;
}

void Validator::move_state_from(Validator& other) noexcept
    BAFFLE_NO_THREAD_SAFETY_ANALYSIS {
  labels_ = std::move(other.labels_);
  num_classes_ = other.num_classes_;
  config_ = other.config_;
  pending_ = other.pending_;
  pending_params_ = std::move(other.pending_params_);
  pending_profile_ = std::move(other.pending_profile_);
  promoted_ = other.promoted_;
  promoted_version_ = other.promoted_version_;
  promoted_profile_ = std::move(other.promoted_profile_);
  counts_ = other.counts_;
  reported_ = other.reported_;
  plan_ = std::move(other.plan_);
  batch_preds_ = std::move(other.batch_preds_);
  batch_models_ = std::move(other.batch_models_);
  window_versions_ = std::move(other.window_versions_);
  window_profiles_ = std::move(other.window_profiles_);
  window_points_ = std::move(other.window_points_);
  lof_window_ = std::move(other.lof_window_);
  window_tau_ = other.window_tau_;
  window_tau_count_ = other.window_tau_count_;
  tally_ = std::move(other.tally_);
  candidate_point_ = std::move(other.candidate_point_);
  candidate_row_ = std::move(other.candidate_row_);
  ablation_values_ = std::move(other.ablation_values_);
  lof_scratch_ = std::move(other.lof_scratch_);
}

void Validator::notify_commit(std::uint64_t version,
                              const ParamVec& committed) {
  MutexLock lock(mu_);
  // Promotion must be exact: only when the committed parameters are
  // byte-equal to the candidate scored last is its profile valid under
  // the new version (deterministic inference ⇒ identical predictions ⇒
  // identical profile). Float equality would be wrong both ways: it
  // calls -0 and +0 equal, and a NaN unequal to its own bits.
  if (pending_ && same_bytes(pending_params_, committed)) {
    promoted_ = true;
    promoted_version_ = version;
    std::swap(promoted_profile_, pending_profile_);
    ++counts_.candidate_reuse;
    report_counts();
  }
  pending_ = false;
}

void Validator::notify_reject() {
  MutexLock lock(mu_);
  pending_ = false;
}

const ErrorProfile* Validator::held_profile(std::uint64_t version) const {
  MutexLock lock(mu_);
  if (promoted_ && promoted_version_ == version) return &promoted_profile_;
  const auto it =
      std::find(window_versions_.begin(), window_versions_.end(), version);
  return it == window_versions_.end()
             ? nullptr
             : &window_profiles_[static_cast<std::size_t>(
                   it - window_versions_.begin())];
}

void Validator::report_counts() {
  MetricsRegistry::global().add_counters({
      {metric::kValidations, counts_.validations - reported_.validations},
      {metric::kModelMaterializations,
       counts_.model_materializations - reported_.model_materializations},
      {metric::kBatchedEvals,
       counts_.batched_evals - reported_.batched_evals},
      {metric::kCandidateReuse,
       counts_.candidate_reuse - reported_.candidate_reuse},
      {metric::kCacheHits, counts_.cache_hits - reported_.cache_hits},
      {metric::kCacheMisses, counts_.cache_misses - reported_.cache_misses},
      // A promotion and a candidate reuse are one event.
      {metric::kCachePromotions,
       counts_.candidate_reuse - reported_.candidate_reuse},
  });
  reported_ = counts_;
}

namespace {

/// z-score with a degenerate-spread guard: when the history statistic
/// barely moves, any visible jump is an outlier. A non-finite sample
/// spread (e.g. NaN from a degenerate history) also falls back to the
/// floor instead of propagating through std::max.
double guarded_zscore(double value, std::span<const double> history_values) {
  const double m = mean(history_values);
  const double s = stddev(history_values);
  const double floor = 1e-4;
  const double spread = std::isfinite(s) ? std::max(s, floor) : floor;
  return (value - m) / spread;
}

}  // namespace

ValidationOutcome Validator::validate(const ParamVec& candidate,
                                      const ModelWindow& history) {
  BAFFLE_CHECK(history.size() <= config_.lookback + 1,
               "validate: history window holds more than l+1 models");
  // Runtime enforcement of the external-serialization contract on the
  // unguarded engine-phase state: a second validate() overlapping this
  // one would share plan_/batch_preds_/batch_models_, which no lock
  // protects by design. Every current caller runs one validate per
  // validator at a time (per-validator fan-out, per-actor ownership).
  BAFFLE_CHECK(!validating_.exchange(true, std::memory_order_acquire),
               "concurrent validate() calls on one Validator");
  struct ClearFlag {
    std::atomic<bool>& flag;
    ~ClearFlag() { flag.store(false, std::memory_order_release); }
  } clear_flag{validating_};

  const ScopedTimer timer(metric::kValidate);

  // Phase 1 (locked): decide what this round must evaluate.
  {
    MutexLock lock(mu_);
    ++counts_.validations;
    plan_round(history);
  }

  // Phase 2 (UNLOCKED): the only expensive step — one batched engine
  // pass, free to fan out across the pool without holding mu_.
  run_plan(candidate, history);

  // Phase 3 (locked): move the held window onto this one and score
  // against it, then report the round's counts in one registry call.
  MutexLock lock(mu_);
  deposit_round(history);
  const ValidationOutcome outcome = score_round(candidate);
  report_counts();
  return outcome;
}

void Validator::plan_round(const ModelWindow& history) {
  // A new round supersedes the previous candidate: its commit/reject
  // notification evidently never arrived (e.g. pure-evaluation callers),
  // and it can no longer be promoted.
  pending_ = false;

  // The new window keeps the held models from `drop` on when they open
  // it, in order. A ModelHistory window always does (for some drop up
  // to all of them); any other window keeps nothing and is rebuilt.
  const std::size_t held = window_versions_.size();
  const std::size_t models = history.size() < 2 ? 0 : history.size();
  std::size_t drop = held;
  if (models > 0) {
    drop = static_cast<std::size_t>(
        std::find(window_versions_.begin(), window_versions_.end(),
                  history.front()->version) -
        window_versions_.begin());
    if (held - drop > models) drop = held;
    for (std::size_t i = 0; drop + i < held; ++i) {
      if (window_versions_[drop + i] != history[i]->version) {
        drop = held;
        break;
      }
    }
  }
  plan_.drop = drop;

  // Of the models after the kept ones, only the promoted candidate —
  // which need not be the newest — is not evaluated again.
  plan_.missed.clear();
  for (std::size_t i = held - drop; i < models; ++i) {
    if (!promoted_ || history[i]->version != promoted_version_) {
      plan_.missed.push_back(i);
    }
  }

  // The candidate is evaluated only on rounds that will actually score
  // it. This predicate mirrors the abstention check in score_round
  // (m history models ⇒ m−1 variation points, for every method): on an
  // abstaining round the history still gets evaluated — it feeds the
  // incremental window — but the candidate pass is skipped.
  const std::size_t variations = history.size() < 2 ? 0 : history.size() - 1;
  plan_.eval_candidate = variations >= config_.min_variations;
}

void Validator::run_plan(const ParamVec& candidate,
                         const ModelWindow& history) {
  const std::size_t missed = plan_.missed.size();
  const std::size_t evals = missed + (plan_.eval_candidate ? 1 : 0);
  if (evals == 0) return;
  const std::size_t n = labels_.size();
  batch_preds_.resize(evals * n);
  batch_models_.clear();
  for (std::size_t i = 0; i < missed; ++i) {
    batch_models_.push_back(
        {history[plan_.missed[i]]->params,
         std::span<std::size_t>(batch_preds_).subspan(i * n, n)});
  }
  if (plan_.eval_candidate) {
    batch_models_.push_back(
        {candidate,
         std::span<std::size_t>(batch_preds_).subspan(missed * n, n)});
  }
  engine_.predict_many(batch_models_);
}

void Validator::deposit_round(const ModelWindow& history) {
  const std::size_t missed = plan_.missed.size();
  const std::size_t evals = missed + (plan_.eval_candidate ? 1 : 0);
  counts_.model_materializations += evals;
  counts_.cache_misses += missed;
  // "Batched" means the engine amortized packing across several history
  // models; a lone miss (steady-state rounds: at most the
  // candidate-turned-history model, and promotion usually covers even
  // that) is counted as a plain materialization only.
  if (missed >= 2) counts_.batched_evals += missed;
  // Profile of the model whose predictions fill batch slot `slot`.
  const std::size_t n = labels_.size();
  const auto tally = [&](std::size_t slot, ErrorProfile& out) {
    const auto preds =
        std::span<const std::size_t>(batch_preds_).subspan(slot * n, n);
    error_profile_into(labels_, preds, num_classes_, tally_, out);
  };
  // The candidate's profile stays pending until the round's
  // commit/reject feedback (score_round arms it).
  if (plan_.eval_candidate) tally(missed, pending_profile_);

  // Whatever the promoted profile was kept for, this window takes it in
  // below or has moved past it.
  promoted_ = false;
  const std::size_t held = window_versions_.size();
  const std::size_t drop = plan_.drop;
  const std::size_t kept = held - drop;
  const std::size_t models = history.size() < 2 ? 0 : history.size();
  // Unchanged window (repeat validation, or the previous round was
  // rejected and rolled back): every held structure is still valid.
  if (drop == 0 && kept == models) return;

  // The kept slots slide to the front in place, and the dropped slots'
  // storage moves behind them for the new models' tallies.
  std::rotate(window_profiles_.begin(),
              window_profiles_.begin() + static_cast<std::ptrdiff_t>(drop),
              window_profiles_.begin() + static_cast<std::ptrdiff_t>(held));
  if (window_profiles_.size() < models) window_profiles_.resize(models);
  window_versions_.erase(
      window_versions_.begin(),
      window_versions_.begin() + static_cast<std::ptrdiff_t>(drop));
  std::size_t slot = 0;
  for (std::size_t i = kept; i < models; ++i) {
    window_versions_.push_back(history[i]->version);
    if (slot < missed && plan_.missed[slot] == i) {
      tally(slot++, window_profiles_[i]);
    } else {
      BAFFLE_DCHECK(history[i]->version == promoted_version_,
                    "a new window model is either missed or promoted");
      std::swap(window_profiles_[i], promoted_profile_);
    }
  }

  // Variation points slide down with their models; only the points of
  // the new pairs are computed — O(s) points when the window moved by
  // s models.
  const std::size_t dim = 2 * num_classes_;
  const std::size_t m = models < 2 ? 0 : models - 1;
  const std::size_t old_m = held < 2 ? 0 : held - 1;
  const std::size_t kept_m = kept < 2 ? 0 : kept - 1;
  const std::size_t drop_m = old_m - kept_m;
  std::copy(window_points_.begin() + static_cast<std::ptrdiff_t>(drop_m * dim),
            window_points_.end(), window_points_.begin());
  window_points_.resize(m * dim);
  for (std::size_t i = kept_m; i < m; ++i) {
    counts_.cache_hits += 2;
    error_variation_into(
        window_profiles_[i], window_profiles_[i + 1],
        std::span<double>(window_points_).subspan(i * dim, dim));
  }
  // Distances and neighbor orders: retained entries carry over, only
  // the new points' rows are computed (DESIGN.md §12).
  lof_window_.shift(drop_m, window_points_, dim);

  // τ = mean leave-one-out LOF of the last ⌊ℓ/4⌋ trusted points. Each
  // is scored against the remaining ℓ−1 points so its reference set
  // matches the candidate's (scored against all ℓ): the paper's listing
  // scores trusted points only against their predecessors, but that
  // shrinks their reference sets relative to the candidate's and biases
  // τ low (inflating false positives). τ depends only on the window, so
  // it is computed once per window here and reused for every candidate
  // scored against it.
  window_tau_ = 0.0;
  window_tau_count_ = 0;
  if (m >= config_.min_variations && m >= 1) {
    const std::size_t k = lof_k_for_lookback(m);
    const std::size_t tau_window =
        std::max<std::size_t>(1, tau_window_for_lookback(m));
    double tau_sum = 0.0;
    for (std::size_t i = m - tau_window; i < m; ++i) {
      if (m - 1 < 2) continue;  // mirrors lof_score's 2-point minimum
      tau_sum += lof_score_windowed(lof_window_, lof_window_.row(i), i, k,
                                    lof_scratch_);
      ++window_tau_count_;
    }
    if (window_tau_count_ > 0) {
      window_tau_ = tau_sum / static_cast<double>(window_tau_count_);
    }
  }
}

ValidationOutcome Validator::score_round(const ParamVec& candidate) {
  ValidationOutcome outcome;

  // A history of m models yields m−1 variation points; with the full
  // ℓ+1 window that is ℓ.
  const std::size_t ell = lof_window_.size();  // effective look-back
  if (ell < config_.min_variations) {
    outcome.abstained = true;
    outcome.vote = 0;
    return outcome;
  }
  BAFFLE_DCHECK(ell <= config_.lookback,
                "a window of m models yields at most l variation points");

  // The candidate's profile was tallied from the plan's engine pass; it
  // stays pending until the round's commit/reject feedback.
  BAFFLE_CHECK(plan_.eval_candidate,
               "scored round requires a planned candidate evaluation");
  const ErrorProfile& latest = window_profiles_[ell];
  ++counts_.cache_hits;
  pending_params_.assign(candidate.begin(), candidate.end());
  pending_ = true;
  const ErrorProfile& candidate_profile = pending_profile_;

  if (config_.method == ValidationMethod::kGlobalAccuracyZScore) {
    // Ablation A1: ignore class structure entirely; look only at the
    // round-to-round change in overall accuracy. An anomalous accuracy
    // *drop* is the poisoning signal.
    ablation_values_.clear();
    for (std::size_t i = 1; i <= ell; ++i) {
      ablation_values_.push_back(window_profiles_[i].accuracy -
                                 window_profiles_[i - 1].accuracy);
    }
    counts_.cache_hits += 2 * ell;
    outcome.phi = -guarded_zscore(candidate_profile.accuracy - latest.accuracy,
                                  ablation_values_);
    outcome.tau = config_.zscore_threshold;
    outcome.vote = outcome.phi > outcome.tau ? 1 : 0;
    return outcome;
  }

  // Candidate's variation point v_{ℓ+1} = v(𝒢^ℓ, G, D).
  candidate_point_.resize(latest.errors.size());
  error_variation_into(latest, candidate_profile, candidate_point_);
  BAFFLE_DCHECK(candidate_point_.size() == 2 * num_classes_,
                "candidate and history variation points must share a dim");

  if (config_.method == ValidationMethod::kVariationNormZScore) {
    // Ablation A2: per-class variation points, but a global z-score on
    // the point's norm instead of the local-density LOF test.
    const std::size_t dim = candidate_point_.size();
    const VariationPoint origin(dim, 0.0);
    const std::span<const double> points(window_points_);
    ablation_values_.clear();
    for (std::size_t i = 0; i < ell; ++i) {
      ablation_values_.push_back(
          variation_distance(points.subspan(i * dim, dim), origin));
    }
    outcome.phi = guarded_zscore(variation_distance(candidate_point_, origin),
                                 ablation_values_);
    outcome.tau = config_.zscore_threshold;
    outcome.vote = outcome.phi > outcome.tau ? 1 : 0;
    return outcome;
  }

  if (window_tau_count_ == 0) {
    outcome.abstained = true;
    outcome.vote = 0;
    return outcome;
  }
  outcome.tau = window_tau_;

  const std::size_t k = lof_k_for_lookback(ell);
  BAFFLE_DCHECK(k == (ell + 1) / 2, "Algorithm 2 fixes k = ceil(l/2)");
  candidate_row_.resize(ell);
  variation_distances(candidate_point_, window_points_, candidate_row_);
  outcome.phi =
      lof_score_windowed(lof_window_, candidate_row_,
                         /*leave_out=*/static_cast<std::size_t>(-1), k,
                         lof_scratch_);
  outcome.vote =
      outcome.phi > config_.tau_margin * outcome.tau ? 1 : 0;
  return outcome;
}

}  // namespace baffle
