#include "linalg/naive.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <type_traits>
#include <utility>

namespace h2::naive {
namespace {

// C(:,j) += sum_k A(:,k) * B(k,j): stride-1 inner loop (column-major sweet spot).
template <class T>
void gemm_nn(T alpha, ConstMatrixViewT<T> a, ConstMatrixViewT<T> b,
             MatrixViewT<T> c) {
  const int m = c.rows(), n = c.cols(), k = a.cols();
  for (int j = 0; j < n; ++j) {
    T* cj = c.col(j);
    int l = 0;
    // Unroll over 4 columns of A to amortize the C column traffic.
    for (; l + 4 <= k; l += 4) {
      const T b0 = alpha * b(l, j), b1 = alpha * b(l + 1, j);
      const T b2 = alpha * b(l + 2, j), b3 = alpha * b(l + 3, j);
      const T* a0 = a.col(l);
      const T* a1 = a.col(l + 1);
      const T* a2 = a.col(l + 2);
      const T* a3 = a.col(l + 3);
      for (int i = 0; i < m; ++i)
        cj[i] += b0 * a0[i] + b1 * a1[i] + b2 * a2[i] + b3 * a3[i];
    }
    for (; l < k; ++l) {
      const T bl = alpha * b(l, j);
      const T* al = a.col(l);
      for (int i = 0; i < m; ++i) cj[i] += bl * al[i];
    }
  }
}

// C(i,j) += alpha * dot(A(:,i), B(:,j)): stride-1 dot products.
template <class T>
void gemm_tn(T alpha, ConstMatrixViewT<T> a, ConstMatrixViewT<T> b,
             MatrixViewT<T> c) {
  const int m = c.rows(), n = c.cols(), k = a.rows();
  for (int j = 0; j < n; ++j) {
    const T* bj = b.col(j);
    for (int i = 0; i < m; ++i) {
      const T* ai = a.col(i);
      T s = T(0);
      for (int l = 0; l < k; ++l) s += ai[l] * bj[l];
      c(i, j) += alpha * s;
    }
  }
}

// C(:,j) += sum_k A(:,k) * B(j,k).
template <class T>
void gemm_nt(T alpha, ConstMatrixViewT<T> a, ConstMatrixViewT<T> b,
             MatrixViewT<T> c) {
  const int m = c.rows(), n = c.cols(), k = a.cols();
  for (int j = 0; j < n; ++j) {
    T* cj = c.col(j);
    for (int l = 0; l < k; ++l) {
      const T bl = alpha * b(j, l);
      const T* al = a.col(l);
      for (int i = 0; i < m; ++i) cj[i] += bl * al[i];
    }
  }
}

// C(i,j) += alpha * dot(A(:,i), B(j,:)) -- B accessed row-wise (strided).
template <class T>
void gemm_tt(T alpha, ConstMatrixViewT<T> a, ConstMatrixViewT<T> b,
             MatrixViewT<T> c) {
  const int m = c.rows(), n = c.cols(), k = a.rows();
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      const T* ai = a.col(i);
      T s = T(0);
      for (int l = 0; l < k; ++l) s += ai[l] * b(j, l);
      c(i, j) += alpha * s;
    }
  }
}

template <class T>
void gemm_impl(T alpha, ConstMatrixViewT<T> a, Trans ta, ConstMatrixViewT<T> b,
               Trans tb, T beta, MatrixViewT<T> c) {
  const int m = c.rows(), n = c.cols();
  const int ka = (ta == Trans::No) ? a.cols() : a.rows();
  if (beta == T(0)) {
    for (int j = 0; j < n; ++j) std::fill_n(c.col(j), m, T(0));
  } else if (beta != T(1)) {
    for (int j = 0; j < n; ++j) {
      T* cj = c.col(j);
      for (int i = 0; i < m; ++i) cj[i] *= beta;
    }
  }
  if (m == 0 || n == 0 || ka == 0 || alpha == T(0)) return;

  if (ta == Trans::No && tb == Trans::No) gemm_nn(alpha, a, b, c);
  else if (ta == Trans::Yes && tb == Trans::No) gemm_tn(alpha, a, b, c);
  else if (ta == Trans::No && tb == Trans::Yes) gemm_nt(alpha, a, b, c);
  else gemm_tt(alpha, a, b, c);
}

template <class T>
void trsm_impl(Side side, UpLo uplo, Trans trans, Diag diag, T alpha,
               ConstMatrixViewT<T> a, MatrixViewT<T> b) {
  const int m = b.rows(), n = b.cols();
  if (m == 0 || n == 0) return;
  if (alpha != T(1)) {
    for (int j = 0; j < n; ++j) {
      T* bj = b.col(j);
      for (int i = 0; i < m; ++i) bj[i] *= alpha;
    }
  }

  // Effective triangle after the transpose: op(A) lower iff
  // (uplo==Lower) xor (trans==Yes).
  const bool op_lower = (uplo == UpLo::Lower) != (trans == Trans::Yes);
  const bool unit = (diag == Diag::Unit);
  auto at = [&](int i, int j) -> T {
    return (trans == Trans::No) ? a(i, j) : a(j, i);
  };

  if (side == Side::Left) {
    // Solve op(A) X = B column by column.
    for (int j = 0; j < n; ++j) {
      T* bj = b.col(j);
      if (op_lower) {
        for (int i = 0; i < m; ++i) {
          T s = bj[i];
          for (int l = 0; l < i; ++l) s -= at(i, l) * bj[l];
          bj[i] = unit ? s : s / at(i, i);
        }
      } else {
        for (int i = m - 1; i >= 0; --i) {
          T s = bj[i];
          for (int l = i + 1; l < m; ++l) s -= at(i, l) * bj[l];
          bj[i] = unit ? s : s / at(i, i);
        }
      }
    }
  } else {
    // Solve X op(A) = B: process columns of X in dependency order, using
    // stride-1 column updates.
    if (op_lower) {
      // X(:,j) determined from j = n-1 down to 0; X(:,j) then updates B(:,l<j).
      for (int j = n - 1; j >= 0; --j) {
        T* bj = b.col(j);
        if (!unit) {
          const T inv = T(1) / at(j, j);
          for (int i = 0; i < m; ++i) bj[i] *= inv;
        }
        for (int l = 0; l < j; ++l) {
          const T f = at(j, l);
          if (f == T(0)) continue;
          T* bl = b.col(l);
          for (int i = 0; i < m; ++i) bl[i] -= f * bj[i];
        }
      }
    } else {
      for (int j = 0; j < n; ++j) {
        T* bj = b.col(j);
        if (!unit) {
          const T inv = T(1) / at(j, j);
          for (int i = 0; i < m; ++i) bj[i] *= inv;
        }
        for (int l = j + 1; l < n; ++l) {
          const T f = at(j, l);
          if (f == T(0)) continue;
          T* bl = b.col(l);
          for (int i = 0; i < m; ++i) bl[i] -= f * bj[i];
        }
      }
    }
  }
}


/// Generate an elementary reflector H = I - tau v v^T annihilating x(1:).
/// x(0) is replaced by beta, x(1:) by the reflector tail (v(0) == 1 implicit).
template <class T>
T make_reflector(T* x, int n) {
  if (n <= 1) return T(0);
  T xnorm2 = T(0);
  for (int i = 1; i < n; ++i) xnorm2 += x[i] * x[i];
  if (xnorm2 == T(0)) return T(0);
  const T alpha = x[0];
  T beta = std::sqrt(alpha * alpha + xnorm2);
  if (alpha > T(0)) beta = -beta;
  const T tau = (beta - alpha) / beta;
  const T inv = T(1) / (alpha - beta);
  for (int i = 1; i < n; ++i) x[i] *= inv;
  x[0] = beta;
  return tau;
}

/// Apply H = I - tau v v^T (v packed in col[k:], v0 implicit 1) to columns
/// [j0, j1) of `a`, restricted to rows [k, m).
template <class T>
void apply_reflector_left(MatrixViewT<T> a, int k, const T* v, T tau, int j0,
                          int j1) {
  if (tau == T(0)) return;
  const int m = a.rows();
  for (int j = j0; j < j1; ++j) {
    T* cj = a.col(j);
    T w = cj[k];
    for (int i = k + 1; i < m; ++i) w += v[i] * cj[i];
    w *= tau;
    cj[k] -= w;
    for (int i = k + 1; i < m; ++i) cj[i] -= w * v[i];
  }
}

template <class T>
PivotedQrT<T> pivoted_qr_impl(ConstMatrixViewT<T> a, double rel_tol,
                              int max_rank) {
  const int m = a.rows(), n = a.cols();
  const int kmax0 = m < n ? m : n;
  const int kmax = (max_rank >= 0 && max_rank < kmax0) ? max_rank : kmax0;

  MatrixT<T> work = MatrixT<T>::from(a);
  MatrixViewT<T> w = work;
  std::vector<T> tau;
  tau.reserve(kmax);
  PivotedQrT<T> out;
  out.jpvt.resize(n);
  for (int j = 0; j < n; ++j) out.jpvt[j] = j;

  // Column norms (squared), with the classic downdate + recompute guard.
  std::vector<T> norm2(n), norm2_ref(n);
  T init_max = T(0);
  for (int j = 0; j < n; ++j) {
    T s = T(0);
    const T* cj = w.col(j);
    for (int i = 0; i < m; ++i) s += cj[i] * cj[i];
    norm2[j] = norm2_ref[j] = s;
    init_max = std::max(init_max, s);
  }
  const T stop2 = (rel_tol > 0.0)
                      ? static_cast<T>(rel_tol * rel_tol) * init_max
                      : T(-1);

  int rank = 0;
  for (int p = 0; p < kmax; ++p) {
    // Pick the remaining column with the largest norm.
    int jmax = p;
    T vmax = norm2[p];
    for (int j = p + 1; j < n; ++j)
      if (norm2[j] > vmax) {
        vmax = norm2[j];
        jmax = j;
      }
    if (vmax <= stop2 || vmax == T(0)) break;
    if (jmax != p) {
      for (int i = 0; i < m; ++i) std::swap(w(i, p), w(i, jmax));
      std::swap(norm2[p], norm2[jmax]);
      std::swap(norm2_ref[p], norm2_ref[jmax]);
      std::swap(out.jpvt[p], out.jpvt[jmax]);
    }
    T* cp = w.col(p);
    const T t = make_reflector(cp + p, m - p);
    tau.push_back(t);
    apply_reflector_left<T>(w, p, cp, t, p + 1, n);
    ++rank;
    // Downdate remaining column norms; recompute on cancellation. The guard
    // threshold scales with the precision's epsilon, so fp32 recomputes as
    // eagerly (relative to its own noise floor) as fp64 does.
    constexpr T kGuard = std::is_same_v<T, float> ? T(1e-5) : T(1e-12);
    for (int j = p + 1; j < n; ++j) {
      const T wp = w(p, j);
      norm2[j] -= wp * wp;
      if (norm2[j] < kGuard * norm2_ref[j] || norm2[j] < T(0)) {
        T s = T(0);
        const T* cj = w.col(j);
        for (int i = p + 1; i < m; ++i) s += cj[i] * cj[i];
        norm2[j] = norm2_ref[j] = s;
      }
    }
  }

  out.rank = rank;
  // Q = H_0 ... H_{rank-1} applied to the identity, one reflector at a time.
  out.q = MatrixT<T>(m, m);
  for (int j = 0; j < m; ++j) out.q(j, j) = T(1);
  for (int p = rank - 1; p >= 0; --p)
    apply_reflector_left<T>(out.q, p, w.col(p), tau[p], 0, m);
  out.r = MatrixT<T>(rank, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < rank && i <= j; ++i) out.r(i, j) = w(i, j);
  return out;
}

}  // namespace

void gemm(double alpha, ConstMatrixView a, Trans ta, ConstMatrixView b,
          Trans tb, double beta, MatrixView c) {
  gemm_impl<double>(alpha, a, ta, b, tb, beta, c);
}

void gemm(double alpha, ConstMatrixViewF a, Trans ta, ConstMatrixViewF b,
          Trans tb, double beta, MatrixViewF c) {
  gemm_impl<float>(static_cast<float>(alpha), a, ta, b, tb,
                   static_cast<float>(beta), c);
}

void trsm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView a, MatrixView b) {
  trsm_impl<double>(side, uplo, trans, diag, alpha, a, b);
}

void trsm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixViewF a, MatrixViewF b) {
  trsm_impl<float>(side, uplo, trans, diag, static_cast<float>(alpha), a, b);
}

PivotedQr pivoted_qr(ConstMatrixView a, double rel_tol, int max_rank) {
  return pivoted_qr_impl<double>(a, rel_tol, max_rank);
}

PivotedQrF pivoted_qr(ConstMatrixViewF a, double rel_tol, int max_rank) {
  return pivoted_qr_impl<float>(a, rel_tol, max_rank);
}

}  // namespace h2::naive
