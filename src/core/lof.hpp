#pragma once
// Local Outlier Factor (Breunig et al., SIGMOD 2000).
//
// LOF_k(x; N) compares the local reachability density of x against that
// of its k nearest neighbors within the reference set N:
//   k-dist(p)        — distance from p to its k-th nearest neighbor
//   reach-dist(a,b)  — max(k-dist(b), d(a, b))
//   lrd(p)           — 1 / mean reach-dist from p to its k-NN
//   LOF(x)           — mean_{b ∈ kNN(x)} lrd(b) / lrd(x)
// LOF ≈ 1 for points inside a cluster; LOF >> 1 flags outliers. The
// reference points' own densities are computed *within N* (leave-self-
// out), matching the original definition.
//
// Reference sets here are tiny (ℓ ≤ 30 variation points), so exact
// O(n²) neighbor search is the right tool.

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/error_variation.hpp"
#include "util/contracts.hpp"

namespace baffle {

/// LOF of `query` with respect to `reference` (which must not contain
/// `query` itself). k is clamped to |reference| − 1 ≥ 1; throws if the
/// reference set has fewer than 2 points. Duplicate/degenerate points
/// are handled by an epsilon floor on densities (LOF of a point that
/// coincides with its neighbors is 1).
double lof_score(const VariationPoint& query,
                 std::span<const VariationPoint> reference, std::size_t k);

/// Pairwise-distance window for incremental LOF across rounds
/// (DESIGN.md §12). The validator owns one per look-back window and
/// moves it with the window: when the window has moved by s models,
/// only the s new points' distance rows are computed (O(ℓ·s)) and the
/// retained points' distances are carried over, instead of every
/// lof_score call redoing the full O(ℓ²) pairwise pass.
///
/// Alongside the distances it keeps, per point j, the other points'
/// indices sorted by (distance to j, index) — the exact neighbor order
/// the pair-sort in lof_score produces — so windowed scoring can slice
/// any leave-one-out neighborhood without re-sorting distances per
/// call. Those orders are carried across a move too: a retained point's
/// order drops the points that left, is renumbered, and has the new
/// points merged in; only a new point's own order is sorted in full. A
/// point with nothing retained (a new one, or every point of a window
/// that shares nothing with the last) is the same merge into an empty
/// order.
/// Retained distances keep their bits, the renumbering is monotone and
/// new points take the highest indices, so each merged order equals the
/// full (distance, index) sort.
class LofWindow {
 public:
  std::size_t size() const { return m_; }
  double dist(std::size_t i, std::size_t j) const {
    BAFFLE_DCHECK_BOUNDS(i, m_);
    BAFFLE_DCHECK_BOUNDS(j, m_);
    return dists_[i * stride_ + j];
  }
  /// Distances from point i to every point (entry i is 0).
  std::span<const double> row(std::size_t i) const {
    BAFFLE_DCHECK_BOUNDS(i, m_);
    return {dists_.data() + i * stride_, m_};
  }
  /// Indices ≠ j sorted by (dist(j, ·), index) — nearest first.
  std::span<const std::size_t> order(std::size_t j) const {
    BAFFLE_DCHECK_BOUNDS(j, m_);
    return m_ <= 1 ? std::span<const std::size_t>{}
                   : std::span<const std::size_t>{
                         orders_.data() + j * stride_, m_ - 1};
  }

  /// Position of i in order(j) (i ≠ j).
  std::size_t rank(std::size_t j, std::size_t i) const {
    BAFFLE_DCHECK_BOUNDS(j, m_);
    BAFFLE_DCHECK_BOUNDS(i, m_);
    return ranks_[j * stride_ + i];
  }

  /// Moves the window: its first `drop` points leave, the others are
  /// renumbered down by `drop`, and the points after them in `points`
  /// are appended. `points` holds the moved window's points, `dim`
  /// values each (row-major): the retained ones — this window's points
  /// from `drop` on, unchanged — then the new ones. Drop every point
  /// to build a window from nothing. Allocates only when the window
  /// grows past every size it has had.
  void shift(std::size_t drop, std::span<const double> points,
             std::size_t dim);

 private:
  std::size_t m_ = 0;
  // Row i of the distances (m_ entries) and of the orders (m_ − 1)
  // starts at i · stride_; the stride grows only with the window, so
  // a move slides the retained block up-left in place.
  std::size_t stride_ = 0;
  std::vector<double> dists_;
  std::vector<std::size_t> orders_;
  std::vector<std::size_t> ranks_;  // order positions, rebuilt per move
  // Scratch of one row's merge: its new neighbors sorted, and the
  // merged order.
  std::vector<std::pair<double, std::size_t>> fresh_;
  std::vector<std::size_t> merged_;
};

/// Scratch for lof_score_windowed. A caller that keeps one across
/// calls scores without allocating once it has scored a window of this
/// size.
struct LofScratch {
  std::vector<double> k_distance;
  std::vector<std::size_t> query_ids;
  std::vector<std::pair<double, std::size_t>> nearest;
};

/// LOF evaluated against the points of `window`, bit-identical to the
/// equivalent lof_score call (same neighbor tie-breaking, clamping,
/// epsilon floor and summation order) but with all pairwise distances
/// read from the window instead of recomputed.
///
/// `query_row` holds the query's distance to every window point. When
/// `leave_out < window.size()`, the query *is* window point `leave_out`
/// (pass `window.row(leave_out)`) and that point is excluded from the
/// reference set — the τ leave-one-out case; pass SIZE_MAX to score an
/// external candidate against the full window.
double lof_score_windowed(const LofWindow& window,
                          std::span<const double> query_row,
                          std::size_t leave_out, std::size_t k,
                          LofScratch& scratch);

}  // namespace baffle
