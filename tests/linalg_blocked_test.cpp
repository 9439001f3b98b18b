// Property tests for the blocked/packed kernel substrate (gemm_kernel.hpp):
// every blocked kernel is checked against the retained naive reference
// (linalg/naive.hpp) over rectangular and odd shapes, strided sub-views,
// alpha/beta edge cases, and the batched entry points are checked bitwise
// against the equivalent loops (that equality is what lets the ULV bodies
// batch without perturbing cross-executor determinism).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "linalg/batch.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/gemm_kernel.hpp"
#include "linalg/lu.hpp"
#include "linalg/naive.hpp"
#include "linalg/qr.hpp"
#include "util/flops.hpp"
#include "util/rng.hpp"

namespace h2 {
namespace {

double max_abs_diff(ConstMatrixView a, ConstMatrixView b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double d = 0.0;
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < a.rows(); ++i)
      d = std::max(d, std::fabs(a(i, j) - b(i, j)));
  return d;
}

bool bitwise_equal(ConstMatrixView a, ConstMatrixView b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int j = 0; j < a.cols(); ++j)
    for (int i = 0; i < a.rows(); ++i)
      if (a(i, j) != b(i, j)) return false;
  return true;
}

TEST(GemmTiling, ReportsSaneConstants) {
  const GemmTiling t = gemm_tiling();
  EXPECT_GE(t.mr, 4);
  EXPECT_GE(t.nr, 4);
  EXPECT_EQ(t.mc % t.mr, 0);
  EXPECT_GT(t.kc, 0);
  EXPECT_GT(t.nc, 0);
  EXPECT_NE(t.isa, nullptr);
}

TEST(BlockedGemm, MatchesNaiveAcrossShapesAndTransposes) {
  // Odd, rectangular, and microtile-straddling shapes: exact multiples of the
  // register tile, one off either way, and skinny panels.
  const int dims[] = {1, 3, 7, 16, 17, 31, 64, 65, 96, 130};
  Rng rng(7);
  for (const int m : dims) {
    for (const int n : dims) {
      const int k = ((m + n) % 5 + 1) * 13;  // odd inner dims, up to 65
      for (const Trans ta : {Trans::No, Trans::Yes}) {
        for (const Trans tb : {Trans::No, Trans::Yes}) {
          const Matrix a = (ta == Trans::No) ? Matrix::random(m, k, rng)
                                             : Matrix::random(k, m, rng);
          const Matrix b = (tb == Trans::No) ? Matrix::random(k, n, rng)
                                             : Matrix::random(n, k, rng);
          Matrix c0 = Matrix::random(m, n, rng);
          Matrix c1 = Matrix::from(c0);
          naive::gemm(0.5, a, ta, b, tb, -2.0, c0);
          gemm(0.5, a, ta, b, tb, -2.0, c1);
          EXPECT_LT(max_abs_diff(c0, c1), 1e-12 * std::max(1, k))
              << "m=" << m << " n=" << n << " k=" << k
              << " ta=" << int(ta) << " tb=" << int(tb);
        }
      }
    }
  }
}

TEST(BlockedGemm, LargeSquareMatchesNaive) {
  Rng rng(11);
  const int n = 333;  // forces multiple MC/KC tiles with edge microtiles
  const Matrix a = Matrix::random(n, n, rng);
  const Matrix b = Matrix::random(n, n, rng);
  Matrix c0(n, n), c1(n, n);
  naive::gemm(1.0, a, Trans::No, b, Trans::No, 0.0, c0);
  gemm(1.0, a, Trans::No, b, Trans::No, 0.0, c1);
  EXPECT_LT(max_abs_diff(c0, c1), 1e-10);
}

TEST(BlockedGemm, StridedSubviewsMatchNaive) {
  // Operands and output living inside a larger parent (ld > rows).
  Rng rng(13);
  Matrix pa = Matrix::random(200, 200, rng);
  Matrix pb = Matrix::random(200, 200, rng);
  Matrix pc0 = Matrix::random(200, 200, rng);
  Matrix pc1 = Matrix::from(pc0);
  const int m = 97, n = 65, k = 83;
  ConstMatrixView a = pa.block(3, 5, m, k);
  ConstMatrixView b = pb.block(11, 2, k, n);
  naive::gemm(-1.5, a, Trans::No, b, Trans::No, 1.0, pc0.block(7, 9, m, n));
  gemm(-1.5, a, Trans::No, b, Trans::No, 1.0, pc1.block(7, 9, m, n));
  EXPECT_LT(max_abs_diff(pc0, pc1), 1e-11);
  // The parent outside the written block is untouched bitwise.
  for (int j = 0; j < 200; ++j)
    for (int i = 0; i < 200; ++i)
      if (i < 7 || i >= 7 + m || j < 9 || j >= 9 + n) {
        ASSERT_EQ(pc0(i, j), pc1(i, j)) << i << "," << j;
      }
}

TEST(BlockedGemm, BetaZeroOverwritesNaNPoisonedC) {
  // beta == 0 must be a full overwrite, never 0 * C (which would keep NaNs).
  Rng rng(17);
  const int n = 150;  // blocked path
  const Matrix a = Matrix::random(n, n, rng);
  const Matrix b = Matrix::random(n, n, rng);
  Matrix c(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i)
      c(i, j) = std::numeric_limits<double>::quiet_NaN();
  gemm(1.0, a, Trans::No, b, Trans::No, 0.0, c);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) ASSERT_FALSE(std::isnan(c(i, j)));
  // Same for the small-size (naive) dispatch.
  Matrix cs(4, 4);
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 4; ++i)
      cs(i, j) = std::numeric_limits<double>::quiet_NaN();
  gemm(1.0, a.block(0, 0, 4, 4), Trans::No, b.block(0, 0, 4, 4), Trans::No,
       0.0, cs);
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 4; ++i) ASSERT_FALSE(std::isnan(cs(i, j)));
}

TEST(BlockedGemm, AlphaZeroLeavesScaledCAndSkipsProduct) {
  Rng rng(19);
  const Matrix a = Matrix::random(140, 140, rng);
  const Matrix b = Matrix::random(140, 140, rng);
  Matrix c = Matrix::random(140, 140, rng);
  const Matrix c0 = Matrix::from(c);
  gemm(0.0, a, Trans::No, b, Trans::No, 3.0, c);
  for (int j = 0; j < 140; ++j)
    for (int i = 0; i < 140; ++i) ASSERT_EQ(c(i, j), 3.0 * c0(i, j));
}

TEST(BlockedTrsm, AllSideUploTransDiagCombosMatchNaive) {
  Rng rng(23);
  for (const int t : {65, 97, 130}) {  // above the blocking threshold
    for (const Side side : {Side::Left, Side::Right}) {
      const int m = (side == Side::Left) ? t : 44;
      const int n = (side == Side::Left) ? 37 : t;
      for (const UpLo uplo : {UpLo::Lower, UpLo::Upper}) {
        for (const Trans trans : {Trans::No, Trans::Yes}) {
          for (const Diag diag : {Diag::NonUnit, Diag::Unit}) {
            Matrix a = Matrix::random(t, t, rng);
            if (diag == Diag::Unit) {
              // A unit triangle with O(1) off-diagonal entries is
              // exponentially ill-conditioned; keep row sums below 1 so the
              // comparison measures the kernels, not error amplification.
              scale(1.0 / t, a);
            }
            for (int i = 0; i < t; ++i) a(i, i) += t;  // well-conditioned
            Matrix b0 = Matrix::random(m, n, rng);
            Matrix b1 = Matrix::from(b0);
            naive::trsm(side, uplo, trans, diag, 0.5, a, b0);
            trsm(side, uplo, trans, diag, 0.5, a, b1);
            EXPECT_LT(max_abs_diff(b0, b1), 1e-11)
                << "t=" << t << " side=" << int(side) << " uplo=" << int(uplo)
                << " trans=" << int(trans) << " diag=" << int(diag);
          }
        }
      }
    }
  }
}

TEST(BlockedGetrf, FactorizationReconstructsAndPivotsLikeUnblocked) {
  Rng rng(29);
  for (const int n : {65, 130, 200}) {
    Matrix a0 = Matrix::random(n, n, rng);
    for (int i = 0; i < n; ++i) a0(i, i) += 2.0;
    Matrix lu = Matrix::from(a0);
    std::vector<int> piv;
    getrf(lu, piv);
    ASSERT_EQ(static_cast<int>(piv.size()), n);
    for (int p = 0; p < n; ++p) {
      ASSERT_GE(piv[p], p);
      ASSERT_LT(piv[p], n);
    }
    // P A = L U: apply the recorded swaps to A, rebuild L * U.
    Matrix pa = Matrix::from(a0);
    laswp(pa, piv, /*forward=*/true);
    Matrix l(n, n), u(n, n);
    for (int j = 0; j < n; ++j) {
      l(j, j) = 1.0;
      for (int i = j + 1; i < n; ++i) l(i, j) = lu(i, j);
      for (int i = 0; i <= j; ++i) u(i, j) = lu(i, j);
    }
    const Matrix rec = matmul(l, u);
    EXPECT_LT(max_abs_diff(pa, rec), 1e-10 * n) << "n=" << n;
    // And solves still work through getrs on the blocked factors.
    Matrix x = Matrix::random(n, 3, rng);
    const Matrix bb = matmul(a0, x);
    Matrix sol = Matrix::from(bb);
    getrs(lu, piv, sol);
    EXPECT_LT(max_abs_diff(sol, x), 1e-8 * n);
  }
}

TEST(BlockedPotrf, ReconstructsAndPreservesUpperTriangle) {
  Rng rng(31);
  for (const int n : {65, 130}) {
    // SPD via A = M M^T + n I.
    const Matrix m0 = Matrix::random(n, n, rng);
    Matrix a(n, n);
    gemm(1.0, m0, Trans::No, m0, Trans::Yes, 0.0, a);
    add_identity(a, static_cast<double>(n));
    const Matrix orig = Matrix::from(a);
    potrf(a);
    // The strict upper triangle is untouched (potrf's documented contract —
    // the blocked panel update must not leak into it).
    for (int j = 1; j < n; ++j)
      for (int i = 0; i < j; ++i) ASSERT_EQ(a(i, j), orig(i, j));
    Matrix l(n, n);
    for (int j = 0; j < n; ++j)
      for (int i = j; i < n; ++i) l(i, j) = a(i, j);
    Matrix rec(n, n);
    gemm(1.0, l, Trans::No, l, Trans::Yes, 0.0, rec);
    for (int j = 0; j < n; ++j)
      for (int i = j; i < n; ++i)
        ASSERT_NEAR(rec(i, j), orig(i, j), 1e-9 * n) << i << "," << j;
  }
}

TEST(BlockedQr, FactorizationReconstructsTallAndWide) {
  Rng rng(37);
  const int shapes[][2] = {{130, 70}, {70, 130}, {96, 96}, {65, 33}};
  for (const auto& s : shapes) {
    const int m = s[0], n = s[1];
    const Matrix a0 = Matrix::random(m, n, rng);
    Matrix qr = Matrix::from(a0);
    std::vector<double> tau;
    householder_qr(qr, tau);
    const Matrix q = form_q(qr, tau, m);
    const Matrix r = extract_r(qr);
    // Q orthonormal.
    Matrix qtq(m, m);
    gemm(1.0, q, Trans::Yes, q, Trans::No, 0.0, qtq);
    add_identity(qtq, -1.0);
    double dev = 0.0;
    for (int j = 0; j < m; ++j)
      for (int i = 0; i < m; ++i) dev = std::max(dev, std::fabs(qtq(i, j)));
    EXPECT_LT(dev, 1e-12 * m) << m << "x" << n;
    // Q R == A (R is min(m,n) x n; use the matching Q columns).
    const int k = m < n ? m : n;
    const Matrix rec = matmul(q.block(0, 0, m, k), r);
    EXPECT_LT(max_abs_diff(rec, a0), 1e-11 * m) << m << "x" << n;
  }
}

TEST(Batched, GemmBatchBitwiseEqualsLoop) {
  Rng rng(41);
  std::vector<Matrix> as, bs, c_loop, c_batch;
  const int shapes[][3] = {{64, 64, 64}, {33, 65, 17}, {64, 64, 64},
                           {5, 3, 4},    {128, 32, 64}, {64, 64, 64}};
  for (const auto& s : shapes) {
    as.push_back(Matrix::random(s[0], s[2], rng));
    bs.push_back(Matrix::random(s[2], s[1], rng));
    c_loop.push_back(Matrix::random(s[0], s[1], rng));
    c_batch.push_back(Matrix::from(c_loop.back()));
  }
  // Shared left operand across several entries (the ULV pattern the pack
  // cache exists for): reuse as[0] for every same-shape entry.
  std::vector<GemmTask> tasks;
  for (std::size_t t = 0; t < as.size(); ++t) {
    const Matrix& a = (as[t].rows() == 64 && as[t].cols() == 64) ? as[0] : as[t];
    gemm(-0.5, a, Trans::No, bs[t], Trans::No, 2.0, c_loop[t]);
    tasks.push_back(
        {-0.5, a, Trans::No, bs[t], Trans::No, 2.0, c_batch[t]});
  }
  gemm_batch(tasks);
  for (std::size_t t = 0; t < as.size(); ++t)
    EXPECT_TRUE(bitwise_equal(c_loop[t], c_batch[t])) << "task " << t;
}

TEST(Batched, GemmBatchBitwiseWithOutputFeedingLaterInput) {
  // Task 0 writes C0; task 1 reads C0 as its A operand. The pack cache must
  // not serve task 1 a panel packed before task 0 ran.
  Rng rng(43);
  const int n = 96;
  Matrix a = Matrix::random(n, n, rng), b = Matrix::random(n, n, rng);
  Matrix c0_l(n, n), c1_l(n, n), c0_b(n, n), c1_b(n, n);
  // Prime then loop.
  gemm(1.0, a, Trans::No, b, Trans::No, 0.0, c0_l);
  gemm(1.0, c0_l, Trans::No, b, Trans::No, 0.0, c1_l);
  std::vector<GemmTask> tasks{
      {1.0, a, Trans::No, b, Trans::No, 0.0, c0_b},
      {1.0, c0_b, Trans::No, b, Trans::No, 0.0, c1_b},
  };
  gemm_batch(tasks);
  EXPECT_TRUE(bitwise_equal(c0_l, c0_b));
  EXPECT_TRUE(bitwise_equal(c1_l, c1_b));
}

TEST(Batched, TrsmBatchBitwiseEqualsLoop) {
  Rng rng(47);
  const int t = 130;
  Matrix a = Matrix::random(t, t, rng);
  for (int i = 0; i < t; ++i) a(i, i) += t;
  std::vector<Matrix> b_loop, b_batch;
  std::vector<TrsmTask> tasks;
  for (int x = 0; x < 4; ++x) {
    b_loop.push_back(Matrix::random(t, 20 + x, rng));
    b_batch.push_back(Matrix::from(b_loop.back()));
  }
  for (int x = 0; x < 4; ++x) {
    trsm(Side::Left, UpLo::Lower, Trans::No, Diag::NonUnit, 1.0, a, b_loop[x]);
    tasks.push_back({Side::Left, UpLo::Lower, Trans::No, Diag::NonUnit, 1.0, a,
                     b_batch[x]});
  }
  trsm_batch(tasks);
  for (int x = 0; x < 4; ++x)
    EXPECT_TRUE(bitwise_equal(b_loop[x], b_batch[x])) << "task " << x;
}

TEST(Batched, QrBatchBitwiseEqualsLoop) {
  Rng rng(53);
  std::vector<Matrix> a_loop, a_batch;
  std::vector<std::vector<double>> tau_loop(4), tau_batch(4);
  for (int x = 0; x < 4; ++x) {
    a_loop.push_back(Matrix::random(90, 40, rng));  // blocked QR path
    a_batch.push_back(Matrix::from(a_loop.back()));
  }
  std::vector<QrTask> tasks;
  for (int x = 0; x < 4; ++x) {
    householder_qr(a_loop[x], tau_loop[x]);
    tasks.push_back({a_batch[x], &tau_batch[x]});
  }
  qr_batch(tasks);
  for (int x = 0; x < 4; ++x) {
    EXPECT_TRUE(bitwise_equal(a_loop[x], a_batch[x])) << "task " << x;
    ASSERT_EQ(tau_loop[x].size(), tau_batch[x].size());
    for (std::size_t p = 0; p < tau_loop[x].size(); ++p)
      ASSERT_EQ(tau_loop[x][p], tau_batch[x][p]);
  }
}

/// m x n matrix with singular values decaying like `decay`^i (distinct gaps,
/// so the fp64 pivot order is well defined).
Matrix decaying(int m, int n, double decay, Rng& rng) {
  const int k = std::min(m, n);
  Matrix u = Matrix::random_normal(m, k, rng);
  Matrix v = Matrix::random_normal(k, n, rng);
  for (int i = 0; i < k; ++i)
    for (int j = 0; j < n; ++j) v(i, j) *= std::pow(decay, i);
  return matmul(u, v);
}

/// ||A(:, jpvt) - Q(:, 0:rank) R||_F / ||A||_F and max |Q^T Q - I|.
template <class T>
std::pair<double, double> pivoted_qr_errors(const Matrix& a,
                                            const PivotedQrT<T>& f) {
  const int m = a.rows(), n = a.cols();
  double num = 0.0, den = 0.0;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      double qr = 0.0;
      for (int l = 0; l < f.rank && l <= j; ++l)
        qr += static_cast<double>(f.q(i, l)) * static_cast<double>(f.r(l, j));
      const double d = a(i, f.jpvt[j]) - qr;
      num += d * d;
      den += a(i, j) * a(i, j);
    }
  double orth = 0.0;
  for (int j = 0; j < m; ++j)
    for (int i = 0; i < m; ++i) {
      double s = 0.0;
      for (int l = 0; l < m; ++l)
        s += static_cast<double>(f.q(l, i)) * static_cast<double>(f.q(l, j));
      orth = std::max(orth, std::fabs(s - (i == j ? 1.0 : 0.0)));
    }
  return {den > 0.0 ? std::sqrt(num / den) : std::sqrt(num), orth};
}

void expect_pivots_match_oracle(const Matrix& a, double rel_tol, int max_rank,
                                const std::string& what) {
  const PivotedQr f = pivoted_qr(a, rel_tol, max_rank);
  const PivotedQr ref = naive::pivoted_qr(a, rel_tol, max_rank);
  ASSERT_EQ(f.rank, ref.rank) << what;
  EXPECT_EQ(f.jpvt, ref.jpvt) << what;
  const auto [err, orth] = pivoted_qr_errors(a, f);
  const auto [ref_err, ref_orth] = pivoted_qr_errors(a, ref);
  // Full-rank factorizations reconstruct to rounding; truncated ones to the
  // oracle's truncation error.
  EXPECT_LE(err, std::max(1e-12, 1.01 * ref_err + 1e-12)) << what;
  EXPECT_LT(orth, 1e-13) << what;
}

TEST(BlockedPivotedQr, MatchesUnblockedOracleAcrossPanelBoundaries) {
  // Shapes on either side of the 32-step panel, plus a wide basis-shaped
  // block that runs many panels.
  Rng rng(61);
  const int dims[] = {31, 32, 33, 65, 200};
  for (const int m : dims)
    for (const int n : dims) {
      const Matrix a = decaying(m, n, 0.9, rng);
      expect_pivots_match_oracle(a, 0.0, -1,
                                 std::to_string(m) + "x" + std::to_string(n));
    }
  expect_pivots_match_oracle(decaying(200, 1400, 0.9, rng), 0.0, -1,
                             "200x1400");
}

TEST(BlockedPivotedQr, StopsMidPanelOnRankTolAndCap) {
  Rng rng(67);
  // Exact rank 40: the 41st pivot norm is rounding noise.
  const Matrix lr = matmul(Matrix::random_normal(120, 40, rng),
                           Matrix::random_normal(40, 300, rng));
  expect_pivots_match_oracle(lr, 1e-12, -1, "exact rank 40");
  EXPECT_EQ(pivoted_qr(lr, 1e-12).rank, 40);
  const Matrix a = decaying(150, 500, 0.8, rng);
  const PivotedQr f = pivoted_qr(a, 1e-6);
  EXPECT_GT(f.rank % 32, 0) << "tolerance stop should land mid-panel";
  expect_pivots_match_oracle(a, 1e-6, -1, "rel_tol 1e-6");
  expect_pivots_match_oracle(a, 0.0, 45, "max_rank 45");
  EXPECT_EQ(pivoted_qr(a, 0.0, 45).rank, 45);
}

TEST(BlockedPivotedQr, NearlyParallelColumnsTripTheNormGuard) {
  // Groups of near-copies: once a group's first column is pivoted, its
  // siblings' norms cancel to ~1e-9 of their start, which trips the
  // downdate guard and ends the panel early.
  Rng rng(71);
  const int m = 90, groups = 24, copies = 6;
  const Matrix base = decaying(m, groups, 0.7, rng);
  Matrix a(m, groups * copies);
  for (int g = 0; g < groups; ++g)
    for (int c = 0; c < copies; ++c)
      for (int i = 0; i < m; ++i)
        a(i, g * copies + c) =
            base(i, g) * (1.0 + 0.1 * c) + 1e-9 * rng.uniform(-1.0, 1.0);
  expect_pivots_match_oracle(a, 0.0, -1, "near-parallel");
  expect_pivots_match_oracle(a, 1e-12, -1, "near-parallel, truncated");
}

TEST(BlockedPivotedQr, ZeroEmptyAndNarrowInputs) {
  Rng rng(73);
  for (const auto& [m, n] :
       std::vector<std::pair<int, int>>{{40, 60}, {0, 5}, {5, 0}, {0, 0}}) {
    const PivotedQr f = pivoted_qr(Matrix(m, n), 1e-8);
    EXPECT_EQ(f.rank, 0);
    EXPECT_EQ(f.r.rows(), 0);
    EXPECT_EQ(f.r.cols(), n);
    ASSERT_EQ(f.q.rows(), m);
    ASSERT_EQ(f.q.cols(), m);
    for (int j = 0; j < m; ++j)
      for (int i = 0; i < m; ++i) ASSERT_EQ(f.q(i, j), i == j ? 1.0 : 0.0);
    for (int j = 0; j < n; ++j) EXPECT_EQ(f.jpvt[j], j);
  }
  for (const int n : {1, 7, 20}) {
    expect_pivots_match_oracle(decaying(50, n, 0.9, rng), 0.0, -1,
                               "50x" + std::to_string(n));
  }
}

TEST(BlockedPivotedQr, Fp32HoldsItsErrorBound) {
  Rng rng(79);
  for (const auto& [m, n] : std::vector<std::pair<int, int>>{
           {33, 65}, {65, 33}, {128, 512}, {200, 1400}}) {
    const Matrix a = decaying(m, n, 0.9, rng);
    const PivotedQrF f = pivoted_qr(to_f32(a), 0.0);
    const auto [err, orth] = pivoted_qr_errors(a, f);
    EXPECT_LT(err, 1e-5) << m << "x" << n;
    EXPECT_LT(orth, 1e-5) << m << "x" << n;
    const PivotedQrF t = pivoted_qr(to_f32(a), 1e-4);
    const PivotedQrF ref = naive::pivoted_qr(to_f32(a), 1e-4);
    EXPECT_LE(std::abs(t.rank - ref.rank), 1) << m << "x" << n;
  }
}

TEST(BlockedFormQ, MatchesReflectorByReflectorApplication) {
  Rng rng(83);
  const int m = 150, n = 120;
  Matrix qr = Matrix::random(m, n, rng);
  std::vector<double> tau;
  householder_qr(qr, tau);
  for (const int nref : {0, 1, 31, 45, 77, 120}) {
    for (const int ncols : {nref, m}) {
      const Matrix q = form_q(qr, tau, ncols, nref);
      // Reference: H_0 ... H_{nref-1} applied to I(:, 0:ncols) one
      // reflector at a time, last first.
      Matrix ref(m, ncols);
      for (int j = 0; j < ncols; ++j) ref(j, j) = 1.0;
      for (int p = nref - 1; p >= 0; --p)
        for (int j = 0; j < ncols; ++j) {
          double w = ref(p, j);
          for (int i = p + 1; i < m; ++i) w += qr(i, p) * ref(i, j);
          w *= tau[p];
          ref(p, j) -= w;
          for (int i = p + 1; i < m; ++i) ref(i, j) -= w * qr(i, p);
        }
      EXPECT_LT(max_abs_diff(q, ref), 1e-13)
          << "nref=" << nref << " ncols=" << ncols;
    }
  }
}

TEST(Flops, BlockedKernelsReportSameAnalyticCountsAsBefore) {
  // The blocked paths must not double-count their internal gemms: public
  // entries report the analytic formula exactly once (fig10 accounting).
  Rng rng(59);
  const int n = 130;
  const Matrix a = Matrix::random(n, n, rng);
  const Matrix b = Matrix::random(n, n, rng);
  Matrix c(n, n);
  flops::reset();
  gemm(1.0, a, Trans::No, b, Trans::No, 0.0, c);
  EXPECT_EQ(flops::total(), flops::gemm(n, n, n));

  Matrix tb = Matrix::random(n, 20, rng);
  Matrix tri = Matrix::from(a);
  for (int i = 0; i < n; ++i) tri(i, i) += n;
  flops::reset();
  trsm(Side::Left, UpLo::Lower, Trans::No, Diag::NonUnit, 1.0, tri, tb);
  EXPECT_EQ(flops::total(), flops::trsm_left(n, 20));

  Matrix lu = Matrix::from(tri);
  std::vector<int> piv;
  flops::reset();
  getrf(lu, piv);
  EXPECT_EQ(flops::total(), flops::getrf(n, n));

  Matrix spd(n, n);
  gemm(1.0, a, Trans::No, a, Trans::Yes, 0.0, spd);
  add_identity(spd, static_cast<double>(n));
  flops::reset();
  potrf(spd);
  EXPECT_EQ(flops::total(), flops::potrf(n));

  Matrix qr = Matrix::from(a);
  std::vector<double> tau;
  flops::reset();
  householder_qr(qr, tau);
  EXPECT_EQ(flops::total(), flops::geqrf(n, n));

  // form_q: 2 m ncols nref; pivoted_qr: column norms + geqrf + the full
  // m x m form_q over its `rank` reflectors.
  flops::reset();
  (void)form_q(qr, tau, 70, 50);
  EXPECT_EQ(flops::total(), 2ull * n * 70 * 50);
  const Matrix wide = Matrix::random(n, 3 * n, rng);
  flops::reset();
  const PivotedQr f = pivoted_qr(wide, 1e-8);
  EXPECT_EQ(flops::total(), 2ull * n * 3 * n + flops::geqrf(n, 3 * n) +
                                2ull * n * n * f.rank);
}

}  // namespace
}  // namespace h2
