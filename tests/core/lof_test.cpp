#include "core/lof.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace baffle {
namespace {

std::vector<VariationPoint> uniform_cluster(std::size_t n, Rng& rng,
                                            double spread = 1.0) {
  std::vector<VariationPoint> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({rng.uniform(-spread, spread),
                      rng.uniform(-spread, spread)});
  }
  return points;
}

TEST(Lof, InlierScoresNearOne) {
  Rng rng(1);
  const auto cluster = uniform_cluster(30, rng);
  const VariationPoint inlier{0.0, 0.0};
  const double score = lof_score(inlier, cluster, 5);
  EXPECT_GT(score, 0.7);
  EXPECT_LT(score, 1.4);
}

TEST(Lof, FarOutlierScoresHigh) {
  Rng rng(2);
  const auto cluster = uniform_cluster(30, rng);
  const VariationPoint outlier{100.0, 100.0};
  EXPECT_GT(lof_score(outlier, cluster, 5), 5.0);
}

TEST(Lof, ScoreIncreasesWithDistance) {
  Rng rng(3);
  const auto cluster = uniform_cluster(25, rng);
  double prev = 0.0;
  for (double d : {2.0, 5.0, 20.0, 100.0}) {
    const double score = lof_score({d, 0.0}, cluster, 5);
    EXPECT_GT(score, prev);
    prev = score;
  }
}

TEST(Lof, PermutationInvariant) {
  Rng rng(4);
  auto cluster = uniform_cluster(20, rng);
  const VariationPoint q{3.0, -1.0};
  const double before = lof_score(q, cluster, 4);
  Rng shuffle_rng(5);
  shuffle_rng.shuffle(cluster);
  EXPECT_DOUBLE_EQ(lof_score(q, cluster, 4), before);
}

TEST(Lof, DuplicateReferencePointsHandled) {
  // All reference points identical: a coincident query is not an
  // outlier; a distant one is.
  const std::vector<VariationPoint> dup(10, VariationPoint{1.0, 1.0});
  EXPECT_NEAR(lof_score({1.0, 1.0}, dup, 3), 1.0, 1e-6);
  EXPECT_GT(lof_score({50.0, 50.0}, dup, 3), 10.0);
}

TEST(Lof, KClampedToReferenceSize) {
  Rng rng(6);
  const auto cluster = uniform_cluster(5, rng);
  // k = 100 >> |ref| - 1; must not throw.
  EXPECT_NO_THROW(lof_score({0.0, 0.0}, cluster, 100));
}

TEST(Lof, TooFewReferencePointsThrow) {
  const std::vector<VariationPoint> one{{0.0, 0.0}};
  EXPECT_THROW(lof_score({1.0, 1.0}, one, 2), std::invalid_argument);
}

TEST(Lof, TwoClusterStructure) {
  // Query near the dense cluster is an inlier even if a sparse cluster
  // exists elsewhere — LOF is *local*.
  Rng rng(7);
  std::vector<VariationPoint> points;
  for (int i = 0; i < 20; ++i) {
    points.push_back({rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)});
  }
  for (int i = 0; i < 5; ++i) {
    points.push_back(
        {100.0 + rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)});
  }
  EXPECT_LT(lof_score({0.0, 0.0}, points, 5), 1.5);
  // A point between the clusters is an outlier w.r.t. both.
  EXPECT_GT(lof_score({50.0, 0.0}, points, 5), 2.0);
}

TEST(Lof, HigherDimensionalPoints) {
  Rng rng(8);
  std::vector<VariationPoint> points;
  for (int i = 0; i < 30; ++i) {
    VariationPoint p(20);
    for (auto& x : p) x = rng.normal(0.0, 0.1);
    points.push_back(std::move(p));
  }
  VariationPoint inlier(20, 0.0), outlier(20, 5.0);
  EXPECT_LT(lof_score(inlier, points, 10), 1.5);
  EXPECT_GT(lof_score(outlier, points, 10), 3.0);
}

TEST(Lof, ScaleInvariant) {
  // LOF is a ratio of local densities: uniformly scaling every point
  // (and the query) must leave the score unchanged.
  Rng rng(9);
  const auto cluster = uniform_cluster(20, rng);
  const VariationPoint q{4.0, -2.0};
  const double base = lof_score(q, cluster, 5);
  for (double factor : {0.01, 7.0, 1000.0}) {
    std::vector<VariationPoint> scaled = cluster;
    VariationPoint qs = q;
    for (auto& p : scaled) {
      for (auto& x : p) x *= factor;
    }
    for (auto& x : qs) x *= factor;
    EXPECT_NEAR(lof_score(qs, scaled, 5), base, 1e-9 * base + 1e-9)
        << "factor " << factor;
  }
}

TEST(Lof, TranslationInvariant) {
  Rng rng(10);
  const auto cluster = uniform_cluster(20, rng);
  const VariationPoint q{4.0, -2.0};
  const double base = lof_score(q, cluster, 5);
  std::vector<VariationPoint> shifted = cluster;
  VariationPoint qs = q;
  for (auto& p : shifted) {
    p[0] += 100.0;
    p[1] -= 50.0;
  }
  qs[0] += 100.0;
  qs[1] -= 50.0;
  EXPECT_NEAR(lof_score(qs, shifted, 5), base, 1e-9);
}

/// Property sweep over k: outlier score must dominate inlier score.
class LofKSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LofKSweep, OutlierAlwaysScoresAboveInlier) {
  const std::size_t k = GetParam();
  Rng rng(100 + k);
  const auto cluster = uniform_cluster(25, rng);
  const double inlier = lof_score({0.1, 0.1}, cluster, k);
  const double outlier = lof_score({30.0, 30.0}, cluster, k);
  EXPECT_GT(outlier, 2.0 * inlier) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Ks, LofKSweep,
                         ::testing::Values<std::size_t>(1, 2, 3, 5, 8, 12,
                                                        20, 24));

// ---------------------------------------------------------------------
// LofWindow: neighbour orders carried across window shifts.

/// Point streams for the window tests. On the {0,1}² lattice every
/// pairwise distance is 0, 1 or √2, so most neighbour ranks are decided
/// by the index tie-break, and repeats make duplicate points.
enum class PointKind { kLattice, kAllZero, kContinuous };

std::vector<VariationPoint> point_stream(PointKind kind, std::size_t n,
                                         Rng& rng) {
  std::vector<VariationPoint> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (kind) {
      case PointKind::kLattice:
        points.push_back({static_cast<double>(rng.uniform_int(0, 1)),
                          static_cast<double>(rng.uniform_int(0, 1))});
        break;
      case PointKind::kAllZero:
        points.push_back({0.0, 0.0});
        break;
      case PointKind::kContinuous:
        points.push_back({rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)});
        break;
    }
  }
  return points;
}

/// `points` laid out as LofWindow::shift reads them (row-major).
std::vector<double> flat(std::span<const VariationPoint> points) {
  std::vector<double> out;
  for (const VariationPoint& p : points) {
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

/// The window over `points`, built from nothing.
LofWindow fresh_window(std::span<const VariationPoint> points) {
  LofWindow window;
  window.shift(0, flat(points), 2);
  return window;
}

/// Moves `window` (over the points before `points`' last `added`) onto
/// `points`, which keep its points from `drop` on and append `added`.
void shift_window(LofWindow& window, std::size_t drop,
                  std::span<const VariationPoint> points, std::size_t added) {
  ASSERT_EQ(window.size() - drop + added, points.size());
  window.shift(drop, flat(points), 2);
}

/// Indices ≠ j of `points` sorted by (distance to j, index): the order
/// lof_score's neighbour search ranks by.
std::vector<std::size_t> full_sort_order(
    std::span<const VariationPoint> points, std::size_t j) {
  std::vector<std::pair<double, std::size_t>> by_dist;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i == j) continue;
    by_dist.emplace_back(variation_distance(points[j], points[i]), i);
  }
  std::sort(by_dist.begin(), by_dist.end());
  std::vector<std::size_t> order;
  for (const auto& entry : by_dist) order.push_back(entry.second);
  return order;
}

/// Every distance and neighbour order of `window` equals a fresh build
/// over `points` and the full sort, and every windowed LOF score equals
/// lof_score's, bit for bit: each leave-one-out score and one score
/// for an external query.
void expect_window_matches(const LofWindow& window,
                           std::span<const VariationPoint> points,
                           const VariationPoint& query) {
  const std::size_t m = points.size();
  ASSERT_EQ(window.size(), m);
  const LofWindow fresh = fresh_window(points);
  for (std::size_t j = 0; j < m; ++j) {
    SCOPED_TRACE(j);
    for (std::size_t i = 0; i < m; ++i) {
      ASSERT_EQ(window.dist(j, i),
                i == j ? 0.0 : variation_distance(points[std::min(i, j)],
                                                  points[std::max(i, j)]));
    }
    const std::vector<std::size_t> want = full_sort_order(points, j);
    const auto got = window.order(j);
    ASSERT_EQ(std::vector<std::size_t>(got.begin(), got.end()), want);
    const auto rebuilt = fresh.order(j);
    ASSERT_EQ(std::vector<std::size_t>(rebuilt.begin(), rebuilt.end()), want);
  }
  if (m < 3) return;
  LofScratch scratch;
  for (const std::size_t k : {std::size_t{1}, (m + 1) / 2, m}) {
    SCOPED_TRACE(k);
    for (std::size_t i = 0; i < m; ++i) {
      std::vector<VariationPoint> rest;
      for (std::size_t j = 0; j < m; ++j) {
        if (j != i) rest.push_back(points[j]);
      }
      EXPECT_EQ(lof_score_windowed(window, window.row(i), i, k, scratch),
                lof_score(points[i], rest, k))
          << "leave-one-out " << i;
    }
    std::vector<double> query_row;
    for (const VariationPoint& p : points) {
      query_row.push_back(variation_distance(query, p));
    }
    EXPECT_EQ(lof_score_windowed(window, query_row,
                                 static_cast<std::size_t>(-1), k, scratch),
              lof_score(query, points, k))
        << "external query";
  }
}

class LofWindowShift
    : public ::testing::TestWithParam<std::tuple<PointKind, std::size_t>> {};

TEST_P(LofWindowShift, CarriedOrdersMatchFullSortAndLofScore) {
  const auto [kind, m] = GetParam();
  Rng rng(1000 + m + 7 * static_cast<std::size_t>(kind));
  const std::vector<VariationPoint> stream = point_stream(kind, 12 * m, rng);
  const VariationPoint query = point_stream(kind, 1, rng).front();
  // d = 0 is warm-up growth; d = m moves the window onto points it
  // shares nothing with.
  for (const std::size_t drop : {std::size_t{0}, std::size_t{1},
                                 std::size_t{2}, std::size_t{5}, m - 1, m}) {
    if (drop > m) continue;
    SCOPED_TRACE(::testing::Message() << "drop " << drop);
    // Growth starts two points short of m and appends one at a time;
    // every other move keeps m points: it drops `drop` and appends as
    // many. Four moves in a row, so orders carried twice are checked.
    std::size_t lo = 0;
    std::size_t size = drop == 0 ? m - 2 : m;
    LofWindow window = fresh_window(
        std::span<const VariationPoint>(stream).subspan(lo, size));
    for (int move = 0; move < 4; ++move) {
      const std::size_t added = drop == 0 ? 1 : drop;
      const std::size_t next_size = size - drop + added;
      lo += drop;
      const auto points =
          std::span<const VariationPoint>(stream).subspan(lo, next_size);
      shift_window(window, drop, points, added);
      SCOPED_TRACE(::testing::Message() << "move " << move);
      expect_window_matches(window, points, query);
      size = next_size;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TiesAndDuplicates, LofWindowShift,
    ::testing::Combine(::testing::Values(PointKind::kLattice,
                                         PointKind::kAllZero,
                                         PointKind::kContinuous),
                       ::testing::Values<std::size_t>(6, 10, 20)));

}  // namespace
}  // namespace baffle
