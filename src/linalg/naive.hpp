#pragma once

#include "linalg/blas.hpp"
#include "linalg/qr.hpp"

/// The pre-blocked reference kernels: straightforward column sweeps with no
/// packing, no register tiling, no cache blocking. Retained for three jobs:
///
///  1. correctness oracle — the property tests compare every blocked kernel
///     against these on random shapes;
///  2. small-size fast path — tiny DAG leaf tasks dispatch here so they never
///     pay packing overhead (see detail::use_blocked in gemm_kernel.hpp);
///  3. the bench_micro_linalg baseline the ">= 2x blocked GFlop/s" gate in
///     BENCH_LINALG.json measures against ("the current kernels" pre-PR),
///     and the ">= 1.5x" pivoted-QR cells (pivoted_qr, pivoted_qr_f32).
///
/// None of these report to h2::flops — accounting happens once at the public
/// gemm()/trsm() entry points, whichever path they dispatch to.
namespace h2::naive {

/// C = alpha * op(A) * op(B) + beta * C, triple-loop column sweeps.
void gemm(double alpha, ConstMatrixView a, Trans ta, ConstMatrixView b,
          Trans tb, double beta, MatrixView c);
/// fp32 overload (scalars stay double at the API and are rounded once at
/// entry, so call sites read identically at either precision).
void gemm(double alpha, ConstMatrixViewF a, Trans ta, ConstMatrixViewF b,
          Trans tb, double beta, MatrixViewF c);

/// Unblocked triangular solve (same contract as h2::trsm).
void trsm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView a, MatrixView b);
void trsm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixViewF a, MatrixViewF b);

/// Unblocked column-pivoted Householder QR (same contract as h2::pivoted_qr):
/// every pivot step applies its reflector to the whole trailing matrix and
/// downdates the column norms, recomputing a norm the moment it cancels; Q
/// is then formed one reflector at a time.
PivotedQr pivoted_qr(ConstMatrixView a, double rel_tol, int max_rank = -1);
PivotedQrF pivoted_qr(ConstMatrixViewF a, double rel_tol, int max_rank = -1);

}  // namespace h2::naive
