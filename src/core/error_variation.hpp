#pragma once
// Per-class error-variation vectors (Eq. 2–3, Section V).
//
// For consecutive models f (older, accepted) and f' (newer) evaluated on
// the same dataset D:
//   v^s(f, f', D, y) = err_D(f)^{y→*} − err_D(f')^{y→*}
//   v^t(f, f', D, y) = err_D(f)^{*→y} − err_D(f')^{*→y}
// and the error-variation point is v(f, f', D) = [v^s, v^t] ∈ R^{2|Y|}.
// Under benign training these points cluster (the global model improves
// gradually); a freshly injected backdoor shifts one or a few classes'
// rates and lands the point far from the cluster.

#include <cstddef>
#include <span>
#include <vector>

namespace baffle {

using VariationPoint = std::vector<double>;

/// What Algorithm 2 reads of one model on D: its per-class source- and
/// target-focused error rates and, for the z-score ablation A1, its
/// accuracy. `errors` is laid out like a VariationPoint — err_D^{y→*}
/// for every class y, then err_D^{*→y} for every class y (2|Y| entries)
/// — so v(f, f', D) is the elementwise difference of two profiles.
struct ErrorProfile {
  std::vector<double> errors;
  double accuracy = 0.0;
};

/// Tallies a model's profile from its per-sample predictions on D. Each
/// entry is an integer count divided once by |D| — the counts a
/// ConfusionMatrix keeps — so the profile is bit-identical to
/// ConfusionMatrix::source_focused_errors, target_focused_errors and
/// accuracy of the same predictions (all zero on an empty D).
ErrorProfile error_profile(std::span<const int> labels,
                           std::span<const std::size_t> preds,
                           std::size_t num_classes);

/// error_profile written into `out`, tallying in `counts`; both keep
/// their storage, so a caller that holds them across calls allocates
/// nothing once they have held one profile of this class count. The
/// labels must already lie in [0, num_classes) (a Dataset's do); a
/// prediction is range-checked only when it is wrong (a right one
/// equals its label).
void error_profile_into(std::span<const int> labels,
                        std::span<const std::size_t> preds,
                        std::size_t num_classes,
                        std::vector<std::size_t>& counts, ErrorProfile& out);

/// Builds v(f, f', D) from the two models' profiles on D.
VariationPoint error_variation(const ErrorProfile& older,
                               const ErrorProfile& newer);

/// error_variation written into `out` (|out| = 2|Y|).
void error_variation_into(const ErrorProfile& older,
                          const ErrorProfile& newer, std::span<double> out);

/// Euclidean distance between variation points (LOF metric). Symmetric
/// to the bit: (a−b)² and (b−a)² are the same double.
double variation_distance(std::span<const double> a,
                          std::span<const double> b);
double variation_distance(const VariationPoint& a, const VariationPoint& b);

/// out[j] = variation_distance(point, point j of `points`), for the
/// |out| points stored row-major in `points` (|point| values each).
/// Each distance sums in variation_distance's order, so every entry has
/// its bits; four are summed at a time so their additions overlap.
void variation_distances(std::span<const double> point,
                         std::span<const double> points,
                         std::span<double> out);

}  // namespace baffle
