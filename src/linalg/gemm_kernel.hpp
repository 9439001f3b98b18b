#pragma once

#include "linalg/blas.hpp"

/// The blocked gemm substrate: an MR x NR register-tiled microkernel fed by
/// A/B panels packed into aligned contiguous buffers, with MC/KC/NC cache
/// blocking (the BLIS/GotoBLAS decomposition). Public `gemm()` routes here
/// for every shape above the small-size threshold; the blocked trsm / getrf /
/// potrf / householder_qr are expressed in terms of these entry points so
/// every hot factor kernel inherits the microkernel's flop rate.
///
/// This translation unit is compiled with the best SIMD flags the host
/// compiler supports (-march=native when available, see CMakeLists), so the
/// per-arch tile constants below are chosen by the instruction set actually
/// in play. Results are deterministic for a given build, and every DAG
/// shape runs this single code path — bitwise identity across shapes and
/// worker counts is preserved. Results are NOT bitwise-stable against
/// the retained naive kernels (different summation order); tests compare the
/// two within floating-point tolerance.
namespace h2 {

/// The tile constants the blocked path was compiled with (per-arch):
/// mr x nr is the register microtile, mc/kc/nc the cache-block sizes.
struct GemmTiling {
  int mr, nr;     ///< microkernel register tile
  int mc, kc, nc; ///< cache blocking (A tile mc x kc, B panel kc x nc)
  const char* isa; ///< "avx512" | "avx2" | "generic"
};
[[nodiscard]] GemmTiling gemm_tiling() noexcept;
/// The fp32 microkernel's tile constants: same cache blocking, but MR spans
/// twice the elements per vector register (e.g. 32x8 on AVX-512 vs 16x8 for
/// fp64), which is where the fp32 path's bandwidth advantage comes from.
[[nodiscard]] GemmTiling gemm_tiling_f32() noexcept;

namespace detail {

/// Dispatch predicate: true when (m, n, k) is worth packing. Tiny DAG leaf
/// tasks (and degenerate shapes with a dimension below one microtile) stay
/// on the naive path so they never pay the packing overhead. Inside a
/// WidthStableScope the predicate ignores n entirely (see below), so a
/// gemm's path — and hence each output column's bits — cannot depend on how
/// many right-hand-side columns ride along.
[[nodiscard]] bool use_blocked(int m, int n, int k) noexcept;
/// fp32 dispatch predicate: same shape logic against the fp32 tile constants.
[[nodiscard]] bool use_blocked_f32(int m, int n, int k) noexcept;

/// C += alpha * op(A) * op(B) through the packed microkernel. No beta
/// handling, no flop accounting — callers pre-scale C and report flops once.
void gemm_accum_blocked(double alpha, ConstMatrixView a, Trans ta,
                        ConstMatrixView b, Trans tb, MatrixView c);
void gemm_accum_blocked(double alpha, ConstMatrixViewF a, Trans ta,
                        ConstMatrixViewF b, Trans tb, MatrixViewF c);

/// Full gemm semantics (beta pre-scale, small-size dispatch to the naive
/// kernels) WITHOUT flop accounting: what the blocked trsm/getrf/potrf/qr
/// call internally so the public entry points count each operation exactly
/// once (fig10's accounting stays truthful).
void gemm_nocount(double alpha, ConstMatrixView a, Trans ta, ConstMatrixView b,
                  Trans tb, double beta, MatrixView c);
void gemm_nocount(double alpha, ConstMatrixViewF a, Trans ta,
                  ConstMatrixViewF b, Trans tb, double beta, MatrixViewF c);

/// y[j] = dot(A(:, j), x) for every column j of A, WITHOUT flop accounting:
/// the Aᵀ·v product of the blocked column-pivoted QR (qr.cpp), which lives
/// here to run with this unit's SIMD flags. Each dot product keeps one
/// partial sum per vector lane and reduces them in a fixed order, so every
/// y[j] depends only on A(:, j), x and m — never on alignment, on n or on
/// the neighbouring columns.
void gemv_t_nocount(ConstMatrixView a, const double* x, double* y);
void gemv_t_nocount(ConstMatrixViewF a, const float* x, float* y);

/// Drop any memoized pack whose source range overlaps `written`. gemm itself
/// invalidates its own C; kernels that write through non-gemm paths (naive
/// trsm sweeps, panel factors, scratch refills) must call this after writing
/// so a later batched gemm cannot reuse a stale panel.
void invalidate_packs(ConstMatrixView written);
void invalidate_packs(ConstMatrixViewF written);

/// RAII enable of the packed-panel memoization used by the *_batch entry
/// points: while a scope is alive, a gemm whose A (or B) operand matches the
/// previously packed panel re-uses it instead of repacking. Only safe when
/// no task in the batch writes memory a later task reads through A/B — the
/// batch entry points guarantee that by invalidating on output overlap.
/// Scopes may not nest (the batch functions are the only intended users).
class PackCacheScope {
 public:
  PackCacheScope();
  ~PackCacheScope();
  PackCacheScope(const PackCacheScope&) = delete;
  PackCacheScope& operator=(const PackCacheScope&) = delete;
};

/// RAII enable (per thread) of WIDTH-STABLE gemm dispatch: while a scope
/// constructed with `enable = true` is alive on this thread, use_blocked
/// ignores the real column count and decides as if every gemm were NR
/// columns wide (`m >= MR && k >= 8 && m*k*NR >= threshold`). The blocked
/// path is perfectly column-local — each output column's bits depend only
/// on A and its own B column (edge microtiles compute the full zero-padded
/// NR-wide tile through the same microkernel) — so under a width-stable
/// scope a solve's per-column results are bitwise independent of how many
/// right-hand sides were batched together. This is the primitive behind
/// UlvOptions::width_stable_solve and the server's determinism contract:
/// a deadline-coalesced batch must equal the same requests solved serially.
///
/// Cost: single-column gemms above the width-stable threshold run the
/// packed microkernel at 1/NR useful lane occupancy instead of the naive
/// sweep. Scopes nest (each restores the previous state); a scope
/// constructed with `enable = false` is a no-op that leaves the thread's
/// current mode untouched, so call sites can gate on an option bool
/// without branching around the object.
class WidthStableScope {
 public:
  explicit WidthStableScope(bool enable);
  ~WidthStableScope();
  WidthStableScope(const WidthStableScope&) = delete;
  WidthStableScope& operator=(const WidthStableScope&) = delete;

 private:
  bool prev_;
};

}  // namespace detail
}  // namespace h2
