#pragma once
// Labelled dataset: one dense row-major feature matrix plus a label per
// row, stored once. features()/labels() hand out references to that
// store, so the validation loop evaluates the same held-out set against
// ℓ+1 models every round without copying it. No const method mutates,
// so concurrent const access needs no lock; mutation needs external
// synchronization, like any standard container.

#include <span>
#include <vector>

#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace baffle {

class Dataset {
 public:
  Dataset() = default;
  Dataset(std::size_t dim, std::size_t num_classes)
      : dim_(dim), num_classes_(num_classes), features_(0, dim) {}

  std::size_t dim() const { return dim_; }
  std::size_t num_classes() const { return num_classes_; }
  std::size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }

  /// Features and label of sample i.
  std::span<const float> x(std::size_t i) const { return features_.row(i); }
  int y(std::size_t i) const { return labels_[i]; }

  /// Appends a sample; validates feature dim and label range.
  void add(std::span<const float> x, int y);

  /// Room for `n` samples in total, so appending up to them never
  /// reallocates (and leaves no growth slack behind).
  void reserve(std::size_t n);

  /// Dense feature matrix (one sample per row). The reference stays
  /// valid until the next mutating call.
  const Matrix& features() const { return features_; }

  /// Integer labels, aligned with features() rows. Same lifetime rules
  /// as features().
  const std::vector<int>& labels() const { return labels_; }

  /// Per-class sample counts (length = num_classes).
  std::vector<std::size_t> class_counts() const;

  /// New dataset containing the samples at `indices`.
  Dataset subset(std::span<const std::size_t> indices) const;

  /// Appends all samples of `other` (same dim/num_classes required).
  void merge(const Dataset& other);

  /// Random split: first part gets `fraction` of the samples.
  std::pair<Dataset, Dataset> split(double fraction, Rng& rng) const;

  /// Uniformly sampled subset of k samples (k <= size).
  Dataset sample(std::size_t k, Rng& rng) const;

  void shuffle(Rng& rng);

 private:
  /// The rows at `rows` (each < size()), in that order, as a new
  /// dataset sized exactly to them.
  Dataset gather(std::span<const std::size_t> rows) const;

  std::size_t dim_ = 0;
  std::size_t num_classes_ = 0;
  Matrix features_;  // size() x dim_
  std::vector<int> labels_;
};

}  // namespace baffle
