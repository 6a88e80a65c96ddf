#pragma once
// Dense row-major float matrix — the numeric workhorse of the NN library.
//
// Deliberately minimal: the training loop needs GEMM in three transpose
// configurations, elementwise arithmetic, and row reductions. All
// heavyweight kernels live in tensor/ops.hpp so this header stays cheap
// to include.

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/aligned.hpp"
#include "util/contracts.hpp"

namespace baffle {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix from_rows(std::size_t rows, std::size_t cols,
                          std::vector<float> data);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(std::size_t r, std::size_t c) {
    BAFFLE_DCHECK_BOUNDS(r, rows_);
    BAFFLE_DCHECK_BOUNDS(c, cols_);
    return data_[r * cols_ + c];
  }
  float at(std::size_t r, std::size_t c) const {
    BAFFLE_DCHECK_BOUNDS(r, rows_);
    BAFFLE_DCHECK_BOUNDS(c, cols_);
    return data_[r * cols_ + c];
  }

  std::span<float> row(std::size_t r) {
    BAFFLE_DCHECK_BOUNDS(r, rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const float> row(std::size_t r) const {
    BAFFLE_DCHECK_BOUNDS(r, rows_);
    return {data_.data() + r * cols_, cols_};
  }

  std::span<float> flat() { return data_; }
  std::span<const float> flat() const { return data_; }

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// Reshape without reallocating; total size must match.
  void reshape(std::size_t rows, std::size_t cols);

  /// Re-dimension, reusing existing storage where possible. Contents are
  /// unspecified afterwards (the inference scratch buffers overwrite
  /// them anyway).
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Appends one row of cols() values, growing like a std::vector.
  void append_row(std::span<const float> values) {
    BAFFLE_DCHECK(values.size() == cols_, "append_row needs cols() values");
    data_.insert(data_.end(), values.begin(), values.end());
    ++rows_;
  }

  /// Capacity for `rows` rows in total: appending up to them never
  /// reallocates.
  void reserve_rows(std::size_t rows) { data_.reserve(rows * cols_); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  // Cache-line-aligned so SIMD loads of the first row are aligned and
  // no 256-bit access anywhere in the buffer straddles a line.
  AlignedFloatVec data_;
};

}  // namespace baffle
