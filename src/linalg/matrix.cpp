#include "linalg/matrix.hpp"

#include <algorithm>
#include <cassert>

namespace h2 {

template <class T>
MatrixT<T> MatrixT<T>::identity(int n) {
  MatrixT m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = T(1);
  return m;
}

template <class T>
MatrixT<T> MatrixT<T>::random(int rows, int cols, Rng& rng) {
  MatrixT m(rows, cols);
  T* d = m.data();
  const std::size_t n = static_cast<std::size_t>(rows) * cols;
  for (std::size_t i = 0; i < n; ++i) d[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
  return m;
}

template <class T>
MatrixT<T> MatrixT<T>::random_normal(int rows, int cols, Rng& rng) {
  MatrixT m(rows, cols);
  T* d = m.data();
  const std::size_t n = static_cast<std::size_t>(rows) * cols;
  for (std::size_t i = 0; i < n; ++i) d[i] = static_cast<T>(rng.normal());
  return m;
}

template <class T>
MatrixT<T> MatrixT<T>::from(ConstMatrixViewT<T> v) {
  MatrixT m(v.rows(), v.cols());
  for (int j = 0; j < v.cols(); ++j)
    std::copy_n(v.col(j), v.rows(), m.data() + static_cast<std::size_t>(j) * v.rows());
  return m;
}

template <class T>
MatrixT<T> MatrixT<T>::transposed() const {
  MatrixT t(cols_, rows_);
  for (int j = 0; j < cols_; ++j)
    for (int i = 0; i < rows_; ++i) t(j, i) = (*this)(i, j);
  return t;
}

template class ConstMatrixViewT<double>;
template class ConstMatrixViewT<float>;
template class MatrixViewT<double>;
template class MatrixViewT<float>;
template class MatrixT<double>;
template class MatrixT<float>;

namespace {

template <class T>
void copy_into_impl(ConstMatrixViewT<T> src, MatrixViewT<T> dst) {
  assert(src.rows() == dst.rows() && src.cols() == dst.cols());
  for (int j = 0; j < src.cols(); ++j)
    std::copy_n(src.col(j), src.rows(), dst.col(j));
}

template <class From, class To>
void convert_into_impl(ConstMatrixViewT<From> src, MatrixViewT<To> dst) {
  assert(src.rows() == dst.rows() && src.cols() == dst.cols());
  for (int j = 0; j < src.cols(); ++j) {
    const From* s = src.col(j);
    To* d = dst.col(j);
    for (int i = 0; i < src.rows(); ++i) d[i] = static_cast<To>(s[i]);
  }
}

template <class T>
MatrixT<T> hconcat_impl(const std::vector<ConstMatrixViewT<T>>& blocks) {
  if (blocks.empty()) return {};
  int cols = 0;
  const int rows = blocks.front().rows();
  for (const auto& b : blocks) {
    assert(b.rows() == rows);
    cols += b.cols();
  }
  MatrixT<T> out(rows, cols);
  int j0 = 0;
  for (const auto& b : blocks) {
    copy_into_impl<T>(b, out.block(0, j0, rows, b.cols()));
    j0 += b.cols();
  }
  return out;
}

template <class T>
MatrixT<T> vconcat_impl(const std::vector<ConstMatrixViewT<T>>& blocks) {
  if (blocks.empty()) return {};
  int rows = 0;
  const int cols = blocks.front().cols();
  for (const auto& b : blocks) {
    assert(b.cols() == cols);
    rows += b.rows();
  }
  MatrixT<T> out(rows, cols);
  int i0 = 0;
  for (const auto& b : blocks) {
    copy_into_impl<T>(b, out.block(i0, 0, b.rows(), cols));
    i0 += b.rows();
  }
  return out;
}

}  // namespace

void copy_into(ConstMatrixView src, MatrixView dst) { copy_into_impl(src, dst); }
void copy_into(ConstMatrixViewF src, MatrixViewF dst) {
  copy_into_impl(src, dst);
}

void convert_into(ConstMatrixView src, MatrixViewF dst) {
  convert_into_impl(src, dst);
}
void convert_into(ConstMatrixViewF src, MatrixView dst) {
  convert_into_impl(src, dst);
}

MatrixF to_f32(ConstMatrixView src) {
  MatrixF out(src.rows(), src.cols());
  convert_into(src, out);
  return out;
}

Matrix to_f64(ConstMatrixViewF src) {
  Matrix out(src.rows(), src.cols());
  convert_into(src, out);
  return out;
}

Matrix hconcat(const std::vector<ConstMatrixView>& blocks) {
  return hconcat_impl(blocks);
}
MatrixF hconcat(const std::vector<ConstMatrixViewF>& blocks) {
  return hconcat_impl(blocks);
}

Matrix vconcat(const std::vector<ConstMatrixView>& blocks) {
  return vconcat_impl(blocks);
}
MatrixF vconcat(const std::vector<ConstMatrixViewF>& blocks) {
  return vconcat_impl(blocks);
}

}  // namespace h2
