#include "core/error_variation.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace baffle {

ErrorProfile error_profile(std::span<const int> labels,
                           std::span<const std::size_t> preds,
                           std::size_t num_classes) {
  for (const int y : labels) {
    BAFFLE_CHECK(y >= 0 && static_cast<std::size_t>(y) < num_classes,
                 "true label out of class range");
  }
  std::vector<std::size_t> counts;
  ErrorProfile out;
  error_profile_into(labels, preds, num_classes, counts, out);
  return out;
}

void error_profile_into(std::span<const int> labels,
                        std::span<const std::size_t> preds,
                        std::size_t num_classes,
                        std::vector<std::size_t>& counts, ErrorProfile& out) {
  BAFFLE_CHECK(num_classes > 0, "error_profile needs at least one class");
  BAFFLE_CHECK(labels.size() == preds.size(),
               "error_profile needs one prediction per label");
  // counts[y] = samples of class y predicted wrong (source-focused),
  // counts[C + y] = samples wrongly predicted as y (target-focused).
  counts.assign(2 * num_classes, 0);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const auto y = static_cast<std::size_t>(labels[i]);
    const std::size_t p = preds[i];
    BAFFLE_DCHECK_BOUNDS(y, num_classes);
    if (p == y) {
      ++correct;
    } else {
      // Only a wrong prediction can lie outside the class range.
      BAFFLE_CHECK(p < num_classes, "predicted label out of class range");
      ++counts[y];
      ++counts[num_classes + p];
    }
  }
  out.errors.assign(2 * num_classes, 0.0);
  out.accuracy = 0.0;
  if (labels.empty()) return;
  const auto total = static_cast<double>(labels.size());
  for (std::size_t i = 0; i < 2 * num_classes; ++i) {
    out.errors[i] = static_cast<double>(counts[i]) / total;
  }
  out.accuracy = static_cast<double>(correct) / total;
}

VariationPoint error_variation(const ErrorProfile& older,
                               const ErrorProfile& newer) {
  VariationPoint v(older.errors.size());
  error_variation_into(older, newer, v);
  return v;
}

void error_variation_into(const ErrorProfile& older,
                          const ErrorProfile& newer, std::span<double> out) {
  BAFFLE_CHECK(older.errors.size() == newer.errors.size() &&
                   out.size() == older.errors.size(),
               "error_variation operands must share the class set");
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = older.errors[i] - newer.errors[i];
  }
}

double variation_distance(std::span<const double> a,
                          std::span<const double> b) {
  BAFFLE_CHECK(a.size() == b.size(),
               "variation_distance operands must share a dimension");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

double variation_distance(const VariationPoint& a, const VariationPoint& b) {
  return variation_distance(std::span<const double>(a),
                            std::span<const double>(b));
}

void variation_distances(std::span<const double> point,
                         std::span<const double> points,
                         std::span<double> out) {
  const std::size_t dim = point.size();
  BAFFLE_CHECK(points.size() == out.size() * dim,
               "variation_distances needs one point per output");
  const double* x = point.data();
  std::size_t j = 0;
  for (; j + 4 <= out.size(); j += 4) {
    const double* q = points.data() + j * dim;
    double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double d0 = x[i] - q[i];
      const double d1 = x[i] - q[dim + i];
      const double d2 = x[i] - q[2 * dim + i];
      const double d3 = x[i] - q[3 * dim + i];
      acc0 += d0 * d0;
      acc1 += d1 * d1;
      acc2 += d2 * d2;
      acc3 += d3 * d3;
    }
    out[j] = std::sqrt(acc0);
    out[j + 1] = std::sqrt(acc1);
    out[j + 2] = std::sqrt(acc2);
    out[j + 3] = std::sqrt(acc3);
  }
  for (; j < out.size(); ++j) {
    out[j] = variation_distance(point, points.subspan(j * dim, dim));
  }
}

}  // namespace baffle
