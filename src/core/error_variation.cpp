#include "core/error_variation.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace baffle {

ErrorProfile error_profile(std::span<const int> labels,
                           std::span<const std::size_t> preds,
                           std::size_t num_classes) {
  BAFFLE_CHECK(num_classes > 0, "error_profile needs at least one class");
  BAFFLE_CHECK(labels.size() == preds.size(),
               "error_profile needs one prediction per label");
  std::vector<std::size_t> source_wrong(num_classes, 0);
  std::vector<std::size_t> target_wrong(num_classes, 0);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const auto y = static_cast<std::size_t>(labels[i]);
    const std::size_t p = preds[i];
    BAFFLE_CHECK(labels[i] >= 0 && y < num_classes,
                 "true label out of class range");
    BAFFLE_CHECK(p < num_classes, "predicted label out of class range");
    if (p == y) {
      ++correct;
    } else {
      ++source_wrong[y];
      ++target_wrong[p];
    }
  }
  ErrorProfile out{std::vector<double>(2 * num_classes, 0.0), 0.0};
  if (labels.empty()) return out;
  const auto total = static_cast<double>(labels.size());
  for (std::size_t y = 0; y < num_classes; ++y) {
    out.errors[y] = static_cast<double>(source_wrong[y]) / total;
    out.errors[num_classes + y] = static_cast<double>(target_wrong[y]) / total;
  }
  out.accuracy = static_cast<double>(correct) / total;
  return out;
}

VariationPoint error_variation(const ErrorProfile& older,
                               const ErrorProfile& newer) {
  BAFFLE_CHECK(older.errors.size() == newer.errors.size(),
               "error_variation operands must share the class set");
  VariationPoint v(older.errors.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = older.errors[i] - newer.errors[i];
  }
  return v;
}

double variation_distance(const VariationPoint& a, const VariationPoint& b) {
  BAFFLE_CHECK(a.size() == b.size(),
               "variation_distance operands must share a dimension");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

void variation_distances(const VariationPoint& point,
                         std::span<const VariationPoint> points,
                         std::span<double> out) {
  BAFFLE_CHECK(out.size() == points.size(),
               "variation_distances output must match the point count");
  for (std::size_t i = 0; i < points.size(); ++i) {
    out[i] = variation_distance(point, points[i]);
  }
}

}  // namespace baffle
