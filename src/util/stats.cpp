#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace baffle {

// mean and stddev are plain loops in index order: the tables' ± columns
// must not depend on the kernel arm.
double mean(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("mean: empty input");
  double acc = 0.0;
  for (const double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("stddev: empty input");
  if (xs.size() == 1) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (const double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("quantile: empty input");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q out of range");
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double min_of(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("min_of: empty input");
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("max_of: empty input");
  return *std::max_element(xs.begin(), xs.end());
}

MeanStd mean_std(std::span<const double> xs) {
  return MeanStd{mean(xs), stddev(xs)};
}

}  // namespace baffle
