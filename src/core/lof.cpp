#include "core/lof.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "util/contracts.hpp"

namespace baffle {

namespace {

constexpr double kEps = 1e-12;

/// Indices of the k nearest reference points to `point`, plus the
/// k-distance. `skip` excludes one reference index (leave-self-out);
/// pass SIZE_MAX to keep all.
struct Neighborhood {
  std::vector<std::size_t> ids;
  double k_distance = 0.0;
};

Neighborhood knn(const VariationPoint& point,
                 std::span<const VariationPoint> reference, std::size_t k,
                 std::size_t skip) {
  std::vector<std::pair<double, std::size_t>> dists;
  dists.reserve(reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (i == skip) continue;
    dists.emplace_back(variation_distance(point, reference[i]), i);
  }
  std::sort(dists.begin(), dists.end());
  const std::size_t kk = std::min(k, dists.size());
  Neighborhood nb;
  nb.ids.reserve(kk);
  for (std::size_t i = 0; i < kk; ++i) nb.ids.push_back(dists[i].second);
  nb.k_distance = kk > 0 ? dists[kk - 1].first : 0.0;
  return nb;
}

}  // namespace

double lof_score(const VariationPoint& query,
                 std::span<const VariationPoint> reference, std::size_t k) {
  BAFFLE_CHECK(reference.size() >= 2,
               "lof_score needs at least 2 reference points");
  k = std::max<std::size_t>(1, std::min(k, reference.size() - 1));
  BAFFLE_DCHECK(k >= 1 && k <= reference.size() - 1,
                "clamped k must leave a non-empty strict neighborhood");

  // k-distance of every reference point, within the reference set.
  std::vector<Neighborhood> ref_nb;
  ref_nb.reserve(reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ref_nb.push_back(knn(reference[i], reference, k, i));
  }

  auto lrd = [&](const VariationPoint& p, const Neighborhood& nb) {
    BAFFLE_DCHECK(!nb.ids.empty(),
                  "local reachability density needs a non-empty neighborhood");
    double total = 0.0;
    for (std::size_t j : nb.ids) {
      const double d = variation_distance(p, reference[j]);
      total += std::max(ref_nb[j].k_distance, d);
    }
    const double mean_reach =
        total / static_cast<double>(std::max<std::size_t>(1, nb.ids.size()));
    return 1.0 / std::max(mean_reach, kEps);
  };

  const Neighborhood query_nb =
      knn(query, reference, k, /*skip=*/static_cast<std::size_t>(-1));
  BAFFLE_DCHECK(query_nb.ids.size() == k,
                "query neighborhood must hold exactly k reference points");
  const double query_lrd = lrd(query, query_nb);

  double neighbor_lrd_sum = 0.0;
  for (std::size_t j : query_nb.ids) {
    neighbor_lrd_sum += lrd(reference[j], ref_nb[j]);
  }
  const double mean_neighbor_lrd =
      neighbor_lrd_sum /
      static_cast<double>(std::max<std::size_t>(1, query_nb.ids.size()));
  return mean_neighbor_lrd / query_lrd;
}

void LofWindow::shift(std::size_t drop, std::span<const double> points,
                      std::size_t dim) {
  BAFFLE_CHECK(drop <= m_,
               "LofWindow::shift drops more points than it holds");
  BAFFLE_CHECK(dim > 0 && points.size() % dim == 0,
               "LofWindow::shift needs whole points of the given dimension");
  const std::size_t old_m = m_;
  const std::size_t m = points.size() / dim;
  const std::size_t kept = old_m - drop;
  BAFFLE_CHECK(kept <= m, "LofWindow::shift must keep every retained point");
  const auto point = [&](std::size_t i) {
    return points.subspan(i * dim, dim);
  };

  // A window larger than every earlier one moves into fresh buffers;
  // otherwise the retained block slides up-left in place (each row is
  // read before any later row overwrites it).
  const std::size_t old_stride = stride_;
  const bool grown = m > stride_;
  std::vector<double> old_dists;
  std::vector<std::size_t> old_orders;
  if (grown) {
    old_dists.swap(dists_);
    old_orders.swap(orders_);
    stride_ = m;
    dists_.assign(m * m, 0.0);
    orders_.assign(m * m, 0);
    ranks_.assign(m * m, 0);
  }
  const double* src_dists = grown ? old_dists.data() : dists_.data();
  const std::size_t* src_orders = grown ? old_orders.data() : orders_.data();

  // Distances: retained pairs keep their bits; each new point's
  // distances to the points before it are computed once and mirrored
  // (the distance is symmetric to the bit).
  if (grown || drop > 0) {
    for (std::size_t i = 0; i < kept; ++i) {
      const double* from = src_dists + (i + drop) * old_stride + drop;
      std::copy(from, from + kept, dists_.data() + i * stride_);
    }
  }
  for (std::size_t p = kept; p < m; ++p) {
    double* row = dists_.data() + p * stride_;
    variation_distances(point(p), points.first(p * dim), {row, p});
    row[p] = 0.0;
    for (std::size_t j = 0; j < p; ++j) dists_[j * stride_ + p] = row[j];
  }
  m_ = m;

  // Orders: the (distance, index) comparator of knn(), so ties between
  // equidistant points break identically. A retained point's carried
  // order is already sorted by it: its distances are unchanged and the
  // renumbering is monotone. Its new neighbors all have higher indices
  // than the carried ones; a new point carries nothing and merges every
  // other point.
  fresh_.resize(m);
  merged_.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    const double* row = dists_.data() + j * stride_;
    // j's new neighbors, taken in index order and insertion-sorted by
    // distance; the strict > keeps an equidistant lower index first.
    std::size_t num_fresh = 0;
    for (std::size_t i = j < kept ? kept : 0; i < m; ++i) {
      if (i == j) continue;
      const double d = row[i];
      std::size_t pos = num_fresh++;
      for (; pos > 0 && fresh_[pos - 1].first > d; --pos) {
        fresh_[pos] = fresh_[pos - 1];
      }
      fresh_[pos] = {d, i};
    }
    // Merge: a new neighbor precedes a carried one only when strictly
    // nearer, its index being the higher.
    const auto* next = fresh_.data();
    const auto* const last = next + num_fresh;
    std::size_t* out = merged_.data();
    if (j < kept) {
      const std::size_t* carried = src_orders + (j + drop) * old_stride;
      for (std::size_t t = 0; t + 1 < old_m; ++t) {
        if (carried[t] < drop) continue;  // left the window
        const std::size_t c = carried[t] - drop;
        for (; next != last && next->first < row[c]; ++next) {
          *out++ = next->second;
        }
        *out++ = c;
      }
    }
    for (; next != last; ++next) *out++ = next->second;
    BAFFLE_DCHECK(out == merged_.data() + (m - 1),
                  "a neighbor order holds every other window point");
    std::size_t* order = orders_.data() + j * stride_;
    std::copy(merged_.data(), out, order);
    for (std::size_t t = 0; t + 1 < m; ++t) ranks_[j * stride_ + order[t]] = t;
  }
}

double lof_score_windowed(const LofWindow& window,
                          std::span<const double> query_row,
                          std::size_t leave_out, std::size_t k,
                          LofScratch& scratch) {
  const std::size_t m = window.size();
  BAFFLE_CHECK(query_row.size() == m,
               "query_row must hold a distance to every window point");
  const bool leave_one_out = leave_out < m;
  const std::size_t active = leave_one_out ? m - 1 : m;
  BAFFLE_CHECK(active >= 2, "lof_score needs at least 2 reference points");
  k = std::max<std::size_t>(1, std::min(k, active - 1));

  // A reference point's neighborhood is the first k active entries of
  // its precomputed order — exactly the ids (in the same sequence) that
  // knn() returns over the leave-one-out reference set. Every order
  // holds m − 1 ≥ k + 1 entries when one point is left out, so the k-th
  // active entry is at k − 1, or at k when the left-out point precedes
  // it.
  std::vector<double>& k_distance = scratch.k_distance;
  k_distance.assign(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    if (j == leave_out) continue;
    const std::size_t kth =
        leave_one_out && window.rank(j, leave_out) < k ? k : k - 1;
    k_distance[j] = window.dist(j, window.order(j)[kth]);
  }

  auto ref_lrd = [&](std::size_t j) {
    double total = 0.0;
    std::size_t count = 0;
    for (std::size_t i : window.order(j)) {
      if (i == leave_out) continue;
      total += std::max(k_distance[i], window.dist(j, i));
      if (++count == k) break;
    }
    BAFFLE_DCHECK(count == k,
                  "local reachability density needs a full neighborhood");
    const double mean_reach = total / static_cast<double>(count);
    return 1.0 / std::max(mean_reach, kEps);
  };

  // Query neighborhood. In the leave-one-out case the query is window
  // point `leave_out`, so its precomputed order (which already excludes
  // the point itself) is the neighbor ranking; an external candidate
  // keeps the first k of its row under the same (distance, index)
  // comparator, inserting in index order so a tie keeps the lower one.
  std::vector<std::size_t>& query_ids = scratch.query_ids;
  query_ids.clear();
  if (leave_one_out) {
    const auto order = window.order(leave_out);
    query_ids.assign(order.begin(),
                     order.begin() + static_cast<std::ptrdiff_t>(k));
  } else {
    auto& nearest = scratch.nearest;
    nearest.resize(k);
    std::size_t count = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const double d = query_row[i];
      if (count == k && !(nearest[k - 1].first > d)) continue;
      std::size_t pos = count < k ? count++ : k - 1;
      for (; pos > 0 && nearest[pos - 1].first > d; --pos) {
        nearest[pos] = nearest[pos - 1];
      }
      nearest[pos] = {d, i};
    }
    for (const auto& entry : nearest) query_ids.push_back(entry.second);
  }

  double query_total = 0.0;
  for (std::size_t i : query_ids) {
    query_total += std::max(k_distance[i], query_row[i]);
  }
  const double query_lrd =
      1.0 / std::max(query_total / static_cast<double>(k), kEps);

  double neighbor_lrd_sum = 0.0;
  for (std::size_t i : query_ids) neighbor_lrd_sum += ref_lrd(i);
  const double mean_neighbor_lrd =
      neighbor_lrd_sum / static_cast<double>(k);
  return mean_neighbor_lrd / query_lrd;
}

}  // namespace baffle
