#include "data/dataset.hpp"

#include <numeric>
#include <stdexcept>

namespace baffle {

void Dataset::add(std::span<const float> x, int y) {
  if (x.size() != dim_) {
    throw std::invalid_argument("Dataset::add: feature dim mismatch");
  }
  if (y < 0 || static_cast<std::size_t>(y) >= num_classes_) {
    throw std::invalid_argument("Dataset::add: label out of range");
  }
  features_.append_row(x);
  labels_.push_back(y);
}

void Dataset::reserve(std::size_t n) {
  features_.reserve_rows(n);
  labels_.reserve(n);
}

std::vector<std::size_t> Dataset::class_counts() const {
  std::vector<std::size_t> counts(num_classes_, 0);
  for (int y : labels_) counts[static_cast<std::size_t>(y)]++;
  return counts;
}

Dataset Dataset::gather(std::span<const std::size_t> rows) const {
  Dataset out(dim_, num_classes_);
  out.reserve(rows.size());
  for (std::size_t r : rows) {
    out.features_.append_row(x(r));
    out.labels_.push_back(labels_[r]);
  }
  return out;
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  for (std::size_t i : indices) {
    if (i >= size()) {
      throw std::out_of_range("Dataset::subset: index out of range");
    }
  }
  return gather(indices);
}

void Dataset::merge(const Dataset& other) {
  if (other.dim_ != dim_ || other.num_classes_ != num_classes_) {
    throw std::invalid_argument("Dataset::merge: incompatible datasets");
  }
  reserve(size() + other.size());
  for (std::size_t i = 0; i < other.size(); ++i) {
    features_.append_row(other.x(i));
  }
  labels_.insert(labels_.end(), other.labels_.begin(), other.labels_.end());
}

std::pair<Dataset, Dataset> Dataset::split(double fraction, Rng& rng) const {
  if (!(fraction >= 0.0 && fraction <= 1.0)) {
    throw std::invalid_argument("Dataset::split: fraction out of range");
  }
  std::vector<std::size_t> order(size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  const auto cut = static_cast<std::size_t>(
      fraction * static_cast<double>(size()) + 0.5);
  const std::span<const std::size_t> rows(order);
  return {gather(rows.first(cut)), gather(rows.subspan(cut))};
}

Dataset Dataset::sample(std::size_t k, Rng& rng) const {
  const auto idx = rng.sample_without_replacement(size(), k);
  return subset(idx);
}

void Dataset::shuffle(Rng& rng) {
  // The same Fisher–Yates draws a shuffle of the rows themselves would
  // make, applied to their indices.
  std::vector<std::size_t> order(size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  *this = gather(order);
}

}  // namespace baffle
