#include "linalg/qr.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <type_traits>
#include <utility>

#include "linalg/gemm_kernel.hpp"
#include "util/flops.hpp"

namespace h2 {
namespace {

/// Panel width of every blocked kernel here. householder_qr and form_q
/// accumulate a panel's reflectors into a compact-WY representation (V
/// unit-lower trapezoid, T upper triangular) and update the rest with three
/// gemms instead of 2*kQrNb rank-1 sweeps; pivoted_qr takes up to kQrNb
/// pivot steps between its one-gemm trailing updates.
constexpr int kQrNb = 32;

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

/// Reusable per-thread scratch for the compact-WY updates and the pivoted
/// QR's panel, so repeated calls don't churn the allocator once the shapes
/// repeat across leaf tasks. One instance per element precision (the panels
/// cannot be shared).
template <class T>
struct QrWorkspace {
  MatrixT<T> v;    ///< explicit reflector panel (unit diag, zeros above)
  MatrixT<T> t;    ///< compact-WY triangular factor
  MatrixT<T> vtv;  ///< V^T V (what larft consumes)
  MatrixT<T> w;    ///< V^T C staging block
  MatrixT<T> f;    ///< pivoted QR: F = A^T V T of the open panel
  std::vector<T> y;  ///< pivoted QR: A^T v, then the pivot row's update
};
template <class T>
QrWorkspace<T>& qr_workspace() {
  thread_local QrWorkspace<T> ws;
  return ws;
}

/// Load reflectors [p0, p0 + pb) of the geqrf-layout `qr` into ws.v (unit
/// lower trapezoid, rows p0..m) and build their compact-WY factor ws.t, so
/// H_p0 ... H_{p0+pb-1} = I - V T V^T.
template <class T>
void load_block_reflector(QrWorkspace<T>& ws, ConstMatrixViewT<T> qr,
                          const T* tau, int p0, int pb) {
  const int mm = qr.rows() - p0;
  ws.v.resize(mm, pb);
  for (int j = 0; j < pb; ++j) {
    ws.v(j, j) = T(1);
    const T* cj = qr.col(p0 + j);
    for (int i = j + 1; i < mm; ++i) ws.v(i, j) = cj[p0 + i];
  }
  detail::invalidate_packs(
      ConstMatrixViewT<T>(ws.v));  // scratch refilled in place

  // larft: T(0:j, j) = -tau_j * T(0:j, 0:j) * (V^T V)(0:j, j). Because
  // v_j vanishes above row j, the full dot products in V^T V are exactly
  // the partial sums larft needs.
  ws.vtv.resize(pb, pb);
  detail::gemm_nocount(1.0, ws.v, Trans::Yes, ws.v, Trans::No, 0.0, ws.vtv);
  ws.t.resize(pb, pb);
  for (int j = 0; j < pb; ++j) {
    const T tj = tau[p0 + j];
    for (int i = 0; i < j; ++i) {
      T s = T(0);
      for (int l = i; l < j; ++l) s += ws.t(i, l) * ws.vtv(l, j);
      ws.t(i, j) = -tj * s;
    }
    ws.t(j, j) = tj;
  }
}

/// C = (I - V op(T) V^T) C with the block loaded in ws, in three steps:
/// W = V^T C; W = op(T) W (in-place triangular multiply); C -= V W.
/// op(T) = T^T applies H^T (the factorization's trailing update), op(T) = T
/// applies H (forming Q).
template <class T>
void apply_block_reflector(QrWorkspace<T>& ws, MatrixViewT<T> c,
                           Trans op_t) {
  const int pb = ws.t.rows(), nc = c.cols();
  ws.w.resize(pb, nc);
  detail::gemm_nocount(1.0, ws.v, Trans::Yes, c, Trans::No, 0.0, ws.w);
  for (int jc = 0; jc < nc; ++jc) {
    T* wc = ws.w.view().col(jc);
    if (op_t == Trans::Yes) {
      for (int i = pb - 1; i >= 0; --i) {
        T s = ws.t(i, i) * wc[i];
        for (int l = 0; l < i; ++l) s += ws.t(l, i) * wc[l];
        wc[i] = s;
      }
    } else {
      for (int i = 0; i < pb; ++i) {
        T s = ws.t(i, i) * wc[i];
        for (int l = i + 1; l < pb; ++l) s += ws.t(i, l) * wc[l];
        wc[i] = s;
      }
    }
  }
  detail::invalidate_packs(
      ConstMatrixViewT<T>(ws.w));  // rewritten in place after the gemm
  detail::gemm_nocount(-1.0, ws.v, Trans::No, ws.w, Trans::No, 1.0, c);
}

template <class T>
void householder_qr_impl(MatrixViewT<T> a, std::vector<T>& tau) {
  const int m = a.rows(), n = a.cols();
  const int k = m < n ? m : n;
  tau.assign(k, T(0));
  if (k <= kQrNb) {
    for (int p = 0; p < k; ++p) {
      T* cp = a.col(p);
      tau[p] = make_reflector(cp + p, m - p);
      apply_reflector_left<T>(a, p, cp, tau[p], p + 1, n);
    }
    detail::invalidate_packs(ConstMatrixViewT<T>(a));
    flops::add(flops::geqrf(m, n));
    return;
  }

  QrWorkspace<T>& ws = qr_workspace<T>();
  for (int p0 = 0; p0 < k; p0 += kQrNb) {
    const int pb = std::min(kQrNb, k - p0);
    // Factor the panel with the unblocked loop, applying each reflector only
    // within the panel's own columns.
    for (int p = p0; p < p0 + pb; ++p) {
      T* cp = a.col(p);
      tau[p] = make_reflector(cp + p, m - p);
      apply_reflector_left<T>(a, p, cp, tau[p], p + 1, p0 + pb);
    }
    const int rest = n - p0 - pb;
    if (rest <= 0) continue;
    load_block_reflector<T>(ws, a, tau.data(), p0, pb);
    apply_block_reflector<T>(ws, a.block(p0, p0 + pb, m - p0, rest),
                             Trans::Yes);
  }
  detail::invalidate_packs(ConstMatrixViewT<T>(a));
  flops::add(flops::geqrf(m, n));
}

template <class T>
MatrixT<T> form_q_impl(ConstMatrixViewT<T> qr, const std::vector<T>& tau,
                       int ncols, int nref) {
  const int m = qr.rows();
  if (nref < 0) nref = static_cast<int>(tau.size());
  assert(ncols <= m);
  MatrixT<T> q(m, ncols);
  for (int j = 0; j < ncols && j < m; ++j) q(j, j) = T(1);
  // Backward accumulation (the xORGQR shape): apply the reflector blocks
  // last to first, each to the identity's trailing corner. Column j < p0 of
  // the partial product is still e_j, which no reflector >= p0 touches, and
  // reflectors at or past ncols leave all of Q(:, 0:ncols) alone.
  const int nact = std::min(nref, ncols);
  QrWorkspace<T>& ws = qr_workspace<T>();
  for (int b = (nact + kQrNb - 1) / kQrNb - 1; b >= 0; --b) {
    const int p0 = b * kQrNb;
    load_block_reflector<T>(ws, qr, tau.data(), p0,
                            std::min(kQrNb, nact - p0));
    apply_block_reflector<T>(ws, q.block(p0, p0, m - p0, ncols - p0),
                             Trans::No);
  }
  flops::add(2ull * m * ncols * static_cast<std::uint64_t>(nref));
  return q;
}

template <class T>
MatrixT<T> extract_r_impl(ConstMatrixViewT<T> qr) {
  const int m = qr.rows(), n = qr.cols();
  const int k = m < n ? m : n;
  MatrixT<T> r(k, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= j && i < k; ++i) r(i, j) = qr(i, j);
  return r;
}

/// Column-pivoted QR in the LAPACK xGEQP3/xLAQPS scheme. A panel takes up
/// to kQrNb pivot steps. Inside it the trailing matrix A0 (as of the panel's
/// start) is left untouched: the panel's reflectors act as A0 - V F^T with
/// F = A0^T V T, so step k brings up to date only its pivot column and its
/// pivot row — one Aᵀ·v product over the trailing columns yields both the
/// new column of F and V^T v. The trailing matrix is updated once per panel
/// by a single gemm. Pivot order follows the unblocked loop: a column whose
/// norm downdate cancels ends the panel, and its norm is recomputed from the
/// updated matrix before the next pivot is picked.
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
  flops::add(2ull * m * n);
  const T stop2 = (rel_tol > 0.0)
                      ? static_cast<T>(rel_tol * rel_tol) * init_max
                      : T(-1);
  // The guard threshold scales with the precision's epsilon, so fp32
  // recomputes as eagerly (relative to its own noise floor) as fp64 does.
  constexpr T kGuard = std::is_same_v<T, float> ? T(1e-5) : T(1e-12);

  QrWorkspace<T>& ws = qr_workspace<T>();
  std::vector<int> cancelled;
  int rank = 0;
  bool stopped = false;
  while (rank < kmax && !stopped) {
    const int p0 = rank, nn = n - p0;
    ws.f.resize(nn, kQrNb);
    MatrixViewT<T> f = ws.f;
    ws.y.resize(nn);
    T* y = ws.y.data();
    int k = 0;  // pivot steps taken in this panel
    for (; k < kQrNb && rank < kmax && cancelled.empty(); ++k, ++rank) {
      const int p = p0 + k;
      // Pick the remaining column with the largest norm.
      int jmax = p;
      T vmax = norm2[p];
      for (int j = p + 1; j < n; ++j)
        if (norm2[j] > vmax) {
          vmax = norm2[j];
          jmax = j;
        }
      if (vmax <= stop2 || vmax == T(0)) {
        stopped = true;
        break;
      }
      if (jmax != p) {
        for (int i = 0; i < m; ++i) std::swap(w(i, p), w(i, jmax));
        for (int l = 0; l < k; ++l) std::swap(f(k, l), f(jmax - p0, l));
        std::swap(norm2[p], norm2[jmax]);
        std::swap(norm2_ref[p], norm2_ref[jmax]);
        std::swap(out.jpvt[p], out.jpvt[jmax]);
      }
      // Bring the pivot column up to date: A(p:m, p) -= V(p:m, :) F(k, :)^T.
      T* cp = w.col(p);
      for (int l = 0; l < k; ++l) {
        const T fl = f(k, l);
        const T* vl = w.col(p0 + l);
        for (int i = p; i < m; ++i) cp[i] -= fl * vl[i];
      }
      const T t = make_reflector(cp + p, m - p);
      tau.push_back(t);
      const T beta = cp[p];
      cp[p] = T(1);  // v in place: the stored tail below its implicit 1

      // y = A(p:m, p0:n)^T v: V^T v over the panel's earlier columns, A0^T v
      // over the columns still to pivot. Then
      // F(k+1:, k) = tau (A0^T v - F(k+1:, 0:k) V^T v).
      detail::gemv_t_nocount(ConstMatrixViewT<T>(w.block(p, p0, m - p, nn)),
                             cp + p, y);
      T* fk = f.col(k);
      for (int j = k + 1; j < nn; ++j) fk[j] = t * y[j];
      for (int l = 0; l < k; ++l) {
        const T c = -t * y[l];
        const T* fl = f.col(l);
        for (int j = k + 1; j < nn; ++j) fk[j] += c * fl[j];
      }
      // Pivot row: A(p, j) -= V(p, 0:k+1) F(j, 0:k+1)^T for j past the pivot
      // (V(p, k) is the 1 stored above). Those entries are final rows of R.
      std::fill(y + k + 1, y + nn, T(0));
      for (int l = 0; l <= k; ++l) {
        const T c = w(p, p0 + l);
        const T* fl = f.col(l);
        for (int j = k + 1; j < nn; ++j) y[j] += c * fl[j];
      }
      cp[p] = beta;
      // Store the row and downdate the remaining column norms in the same
      // strided pass; a cancelled norm ends the panel.
      for (int j = p + 1; j < n; ++j) {
        const T wp = w(p, j) - y[j - p0];
        w(p, j) = wp;
        norm2[j] -= wp * wp;
        if (norm2[j] < kGuard * norm2_ref[j] || norm2[j] < T(0))
          cancelled.push_back(j);
      }
    }
    // Rows 0..rank-1 of R and the reflectors are final; only a panel that
    // leads to another needs the trailing matrix.
    if (stopped || rank == kmax) break;
    const int r0 = p0 + k;
    detail::invalidate_packs(ConstMatrixViewT<T>(ws.f));  // refilled per panel
    detail::gemm_nocount(-1.0, w.block(r0, p0, m - r0, k), Trans::No,
                         f.block(k, 0, nn - k, k), Trans::Yes, 1.0,
                         w.block(r0, r0, m - r0, n - r0));
    for (const int j : cancelled) {
      T s = T(0);
      const T* cj = w.col(j);
      for (int i = r0; i < m; ++i) s += cj[i] * cj[i];
      norm2[j] = norm2_ref[j] = s;
    }
    cancelled.clear();
  }
  flops::add(flops::geqrf(m, n));

  out.rank = rank;
  out.q = form_q_impl<T>(w, tau, m, rank);
  out.r = MatrixT<T>(rank, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < rank && i <= j; ++i) out.r(i, j) = w(i, j);
  // R is upper-trapezoidal in the pivoted ordering; rows beyond `rank` are
  // truncated (that is the low-rank approximation error).
  return out;
}

}  // namespace

void householder_qr(MatrixView a, std::vector<double>& tau) {
  householder_qr_impl<double>(a, tau);
}
void householder_qr(MatrixViewF a, std::vector<float>& tau) {
  householder_qr_impl<float>(a, tau);
}

Matrix form_q(ConstMatrixView qr, const std::vector<double>& tau, int ncols,
              int nref) {
  return form_q_impl<double>(qr, tau, ncols, nref);
}
MatrixF form_q(ConstMatrixViewF qr, const std::vector<float>& tau, int ncols,
               int nref) {
  return form_q_impl<float>(qr, tau, ncols, nref);
}

Matrix extract_r(ConstMatrixView qr) { return extract_r_impl<double>(qr); }
MatrixF extract_r(ConstMatrixViewF qr) { return extract_r_impl<float>(qr); }

PivotedQr pivoted_qr(ConstMatrixView a, double rel_tol, int max_rank) {
  return pivoted_qr_impl<double>(a, rel_tol, max_rank);
}
PivotedQrF pivoted_qr(ConstMatrixViewF a, double rel_tol, int max_rank) {
  return pivoted_qr_impl<float>(a, rel_tol, max_rank);
}

}  // namespace h2
