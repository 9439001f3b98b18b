#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

#include "linalg/aligned.hpp"
#include "util/rng.hpp"

namespace h2 {

template <class T>
class MatrixT;

/// Non-owning read-only view of a column-major matrix with leading dimension.
/// `T` is the element precision: double everywhere the library carries fp64
/// numerics, float on the mixed-precision factorization path. The unqualified
/// aliases (ConstMatrixView / MatrixView / Matrix) keep their historical fp64
/// meaning; the F-suffixed aliases are the fp32 siblings.
template <class T>
class ConstMatrixViewT {
 public:
  ConstMatrixViewT() = default;
  ConstMatrixViewT(const T* data, int rows, int cols, int ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    assert(ld >= rows);
  }

  [[nodiscard]] T operator()(int i, int j) const {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i) + static_cast<std::size_t>(j) * ld_];
  }
  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] int ld() const { return ld_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] const T* col(int j) const {
    return data_ + static_cast<std::size_t>(j) * ld_;
  }
  [[nodiscard]] bool empty() const { return rows_ == 0 || cols_ == 0; }

  /// Sub-view of rows [i0, i0+m) x cols [j0, j0+n).
  [[nodiscard]] ConstMatrixViewT block(int i0, int j0, int m, int n) const {
    assert(i0 >= 0 && j0 >= 0 && i0 + m <= rows_ && j0 + n <= cols_);
    return {data_ + static_cast<std::size_t>(i0) + static_cast<std::size_t>(j0) * ld_,
            m, n, ld_};
  }

 private:
  const T* data_ = nullptr;
  int rows_ = 0, cols_ = 0, ld_ = 1;
};

/// Non-owning mutable view; converts implicitly to ConstMatrixViewT<T>.
template <class T>
class MatrixViewT {
 public:
  MatrixViewT() = default;
  MatrixViewT(T* data, int rows, int cols, int ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    assert(ld >= rows);
  }

  [[nodiscard]] T& operator()(int i, int j) const {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i) + static_cast<std::size_t>(j) * ld_];
  }
  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] int ld() const { return ld_; }
  [[nodiscard]] T* data() const { return data_; }
  [[nodiscard]] T* col(int j) const {
    return data_ + static_cast<std::size_t>(j) * ld_;
  }
  [[nodiscard]] bool empty() const { return rows_ == 0 || cols_ == 0; }

  [[nodiscard]] MatrixViewT block(int i0, int j0, int m, int n) const {
    assert(i0 >= 0 && j0 >= 0 && i0 + m <= rows_ && j0 + n <= cols_);
    return {data_ + static_cast<std::size_t>(i0) + static_cast<std::size_t>(j0) * ld_,
            m, n, ld_};
  }

  operator ConstMatrixViewT<T>() const { return {data_, rows_, cols_, ld_}; }  // NOLINT

 private:
  T* data_ = nullptr;
  int rows_ = 0, cols_ = 0, ld_ = 1;
};

/// Owning column-major dense matrix (leading dimension == rows). The single
/// value type used throughout the library; vectors are n x 1. Storage is
/// kMatrixAlign (64-byte) aligned — see aligned.hpp — so the blocked kernels'
/// packed panels and vector loads start on a cache line.
template <class T>
class MatrixT {
 public:
  using value_type = T;
  using Buffer = AlignedBufferT<T>;

  MatrixT() = default;
  /// Zero-initialized r x c matrix.
  MatrixT(int rows, int cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
              T(0)) {
    assert(rows >= 0 && cols >= 0);
  }
  /// Adopt `storage` (size must be rows * cols; its values are the matrix
  /// entries, column-major) — the recycling hook BlockPool::make builds on.
  MatrixT(int rows, int cols, Buffer&& storage)
      : rows_(rows), cols_(cols), data_(std::move(storage)) {
    assert(rows >= 0 && cols >= 0);
    assert(data_.size() ==
           static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols));
  }

  static MatrixT identity(int n);
  /// Entries i.i.d. uniform in [-1, 1).
  static MatrixT random(int rows, int cols, Rng& rng);
  /// Entries i.i.d. standard normal.
  static MatrixT random_normal(int rows, int cols, Rng& rng);
  /// Deep copy of a view.
  static MatrixT from(ConstMatrixViewT<T> v);

  [[nodiscard]] T& operator()(int i, int j) {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i) + static_cast<std::size_t>(j) * rows_];
  }
  [[nodiscard]] T operator()(int i, int j) const {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i) + static_cast<std::size_t>(j) * rows_];
  }

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }
  [[nodiscard]] bool empty() const { return rows_ == 0 || cols_ == 0; }

  [[nodiscard]] MatrixViewT<T> view() { return {data(), rows_, cols_, rows_}; }
  [[nodiscard]] ConstMatrixViewT<T> view() const {
    return {data(), rows_, cols_, rows_};
  }
  [[nodiscard]] MatrixViewT<T> block(int i0, int j0, int m, int n) {
    return view().block(i0, j0, m, n);
  }
  [[nodiscard]] ConstMatrixViewT<T> block(int i0, int j0, int m, int n) const {
    return view().block(i0, j0, m, n);
  }

  operator MatrixViewT<T>() { return view(); }             // NOLINT
  operator ConstMatrixViewT<T>() const { return view(); }  // NOLINT

  /// Discard contents and reshape to zero-filled r x c.
  void resize(int rows, int cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
                 T(0));
  }
  void set_zero() { std::fill(data_.begin(), data_.end(), T(0)); }

  [[nodiscard]] MatrixT transposed() const;

  /// Move out the backing storage (capacity intact — what a pool recycles);
  /// the matrix is left empty (0 x 0). Rvalue-qualified so call sites spell
  /// the consumption: std::move(m).take_storage().
  [[nodiscard]] Buffer take_storage() && {
    rows_ = cols_ = 0;
    return std::move(data_);
  }

 private:
  int rows_ = 0, cols_ = 0;
  Buffer data_;
};

extern template class ConstMatrixViewT<double>;
extern template class ConstMatrixViewT<float>;
extern template class MatrixViewT<double>;
extern template class MatrixViewT<float>;
extern template class MatrixT<double>;
extern template class MatrixT<float>;

/// The fp64 types — the historical names, used everywhere outside the
/// mixed-precision factorization path.
using ConstMatrixView = ConstMatrixViewT<double>;
using MatrixView = MatrixViewT<double>;
using Matrix = MatrixT<double>;
/// The fp32 siblings of the mixed-precision path.
using ConstMatrixViewF = ConstMatrixViewT<float>;
using MatrixViewF = MatrixViewT<float>;
using MatrixF = MatrixT<float>;

/// Copy `src` into `dst` (shapes must match). Concrete per-precision overloads
/// (not a template): template argument deduction would not consider the
/// implicit Matrix -> view conversions existing call sites rely on.
void copy_into(ConstMatrixView src, MatrixView dst);
void copy_into(ConstMatrixViewF src, MatrixViewF dst);

/// Precision conversion (shapes must match): fp64 -> fp32 rounds each entry
/// to nearest float; fp32 -> fp64 is exact.
void convert_into(ConstMatrixView src, MatrixViewF dst);
void convert_into(ConstMatrixViewF src, MatrixView dst);
/// Whole-matrix conversions built on convert_into.
[[nodiscard]] MatrixF to_f32(ConstMatrixView src);
[[nodiscard]] Matrix to_f64(ConstMatrixViewF src);

/// Horizontal concatenation [A0 A1 ...]; all blocks share the row count.
Matrix hconcat(const std::vector<ConstMatrixView>& blocks);
MatrixF hconcat(const std::vector<ConstMatrixViewF>& blocks);
/// Vertical concatenation; all blocks share the column count.
Matrix vconcat(const std::vector<ConstMatrixView>& blocks);
MatrixF vconcat(const std::vector<ConstMatrixViewF>& blocks);

}  // namespace h2
