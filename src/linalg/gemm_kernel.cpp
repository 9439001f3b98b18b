#include "linalg/gemm_kernel.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

#include "linalg/aligned.hpp"
#include "linalg/naive.hpp"

namespace h2 {
namespace {

// ---------------------------------------------------------------------------
// Per-arch, per-precision tile constants. The microkernel keeps an MR x NR
// accumulator block in registers: MR is a small multiple of the vector width,
// NR is bounded by the register file (MR/W * NR + MR/W + 1 live vector
// registers). A vector register holds twice as many floats as doubles, so the
// fp32 tile spans twice the rows of the fp64 tile at the same register
// budget — that 2x element throughput (and the halved panel bytes) is the
// whole point of the mixed-precision path.
// ---------------------------------------------------------------------------
template <class T>
struct Tile;

#if defined(__AVX512F__)
template <>
struct Tile<double> {
  static constexpr int MR = 16, NR = 8;  // 2 zmm x 8 accumulators
};
template <>
struct Tile<float> {
  static constexpr int MR = 32, NR = 8;  // 2 zmm (16 lanes each) x 8
};
constexpr const char* kIsa = "avx512";
#elif defined(__AVX2__)
template <>
struct Tile<double> {
  static constexpr int MR = 8, NR = 6;  // 2 ymm x 6 accumulators
};
template <>
struct Tile<float> {
  static constexpr int MR = 16, NR = 6;  // 2 ymm (8 lanes each) x 6
};
constexpr const char* kIsa = "avx2";
#else
template <>
struct Tile<double> {
  static constexpr int MR = 4, NR = 4;  // scalar/SSE fallback
};
template <>
struct Tile<float> {
  static constexpr int MR = 4, NR = 4;
};
constexpr const char* kIsa = "generic";
#endif

// Cache blocking, shared across precisions: the packed A tile (MC x KC
// elements) lives in L2 while the packed B panel streams through it one
// KC x NR sliver (L1-resident) at a time. In fp32 the same element counts
// occupy half the bytes — the panels get roomier, never tighter.
constexpr int MC = 128, KC = 256, NC = 1024;

static_assert(MC % Tile<double>::MR == 0 && MC % Tile<float>::MR == 0,
              "A tile must hold whole row microtiles");

// ---------------------------------------------------------------------------
// Microkernel: C[0:MR, 0:NR] += sum_p Apanel[p*MR + i] * Bpanel[p*NR + j].
// Explicit intrinsics per ISA and element type: the accumulator block must
// live in registers for the whole k-loop, and compilers reliably spill a
// plain T[NR][MR] array to the stack (measured: ~2.5x slower than the naive
// kernels). The A-panel loads are aligned: the pack buffer is
// kMatrixAlign-aligned and each k-step advances a whole MR-row microtile.
// The template drivers below select the overload by element pointer type.
// ---------------------------------------------------------------------------
#if defined(__AVX512F__)

void ukr(int kc, const double* __restrict ap, const double* __restrict bp,
         double* __restrict c, int ldc) {
  constexpr int MR = Tile<double>::MR, NR = Tile<double>::NR;
  __m512d lo[NR], hi[NR];  // two zmm per C column: 16 of 32 registers
  for (int j = 0; j < NR; ++j) lo[j] = hi[j] = _mm512_setzero_pd();
  for (int p = 0; p < kc; ++p) {
    const __m512d a0 = _mm512_load_pd(ap);
    const __m512d a1 = _mm512_load_pd(ap + 8);
    ap += MR;
#pragma GCC unroll 8
    for (int j = 0; j < NR; ++j) {
      const __m512d bv = _mm512_set1_pd(bp[j]);
      lo[j] = _mm512_fmadd_pd(a0, bv, lo[j]);
      hi[j] = _mm512_fmadd_pd(a1, bv, hi[j]);
    }
    bp += NR;
  }
  for (int j = 0; j < NR; ++j) {
    double* cj = c + static_cast<std::size_t>(j) * ldc;
    _mm512_storeu_pd(cj, _mm512_add_pd(_mm512_loadu_pd(cj), lo[j]));
    _mm512_storeu_pd(cj + 8, _mm512_add_pd(_mm512_loadu_pd(cj + 8), hi[j]));
  }
}

void ukr(int kc, const float* __restrict ap, const float* __restrict bp,
         float* __restrict c, int ldc) {
  constexpr int MR = Tile<float>::MR, NR = Tile<float>::NR;
  __m512 lo[NR], hi[NR];  // two zmm (16 floats each) per C column
  for (int j = 0; j < NR; ++j) lo[j] = hi[j] = _mm512_setzero_ps();
  for (int p = 0; p < kc; ++p) {
    const __m512 a0 = _mm512_load_ps(ap);
    const __m512 a1 = _mm512_load_ps(ap + 16);
    ap += MR;
#pragma GCC unroll 8
    for (int j = 0; j < NR; ++j) {
      const __m512 bv = _mm512_set1_ps(bp[j]);
      lo[j] = _mm512_fmadd_ps(a0, bv, lo[j]);
      hi[j] = _mm512_fmadd_ps(a1, bv, hi[j]);
    }
    bp += NR;
  }
  for (int j = 0; j < NR; ++j) {
    float* cj = c + static_cast<std::size_t>(j) * ldc;
    _mm512_storeu_ps(cj, _mm512_add_ps(_mm512_loadu_ps(cj), lo[j]));
    _mm512_storeu_ps(cj + 16, _mm512_add_ps(_mm512_loadu_ps(cj + 16), hi[j]));
  }
}

#elif defined(__AVX2__)

void ukr(int kc, const double* __restrict ap, const double* __restrict bp,
         double* __restrict c, int ldc) {
  constexpr int MR = Tile<double>::MR, NR = Tile<double>::NR;
  __m256d lo[NR], hi[NR];  // two ymm per C column: 12 of 16 registers
  for (int j = 0; j < NR; ++j) lo[j] = hi[j] = _mm256_setzero_pd();
  for (int p = 0; p < kc; ++p) {
    const __m256d a0 = _mm256_load_pd(ap);
    const __m256d a1 = _mm256_load_pd(ap + 4);
    ap += MR;
#pragma GCC unroll 6
    for (int j = 0; j < NR; ++j) {
      const __m256d bv = _mm256_set1_pd(bp[j]);
      lo[j] = _mm256_fmadd_pd(a0, bv, lo[j]);
      hi[j] = _mm256_fmadd_pd(a1, bv, hi[j]);
    }
    bp += NR;
  }
  for (int j = 0; j < NR; ++j) {
    double* cj = c + static_cast<std::size_t>(j) * ldc;
    _mm256_storeu_pd(cj, _mm256_add_pd(_mm256_loadu_pd(cj), lo[j]));
    _mm256_storeu_pd(cj + 4, _mm256_add_pd(_mm256_loadu_pd(cj + 4), hi[j]));
  }
}

void ukr(int kc, const float* __restrict ap, const float* __restrict bp,
         float* __restrict c, int ldc) {
  constexpr int MR = Tile<float>::MR, NR = Tile<float>::NR;
  __m256 lo[NR], hi[NR];  // two ymm (8 floats each) per C column
  for (int j = 0; j < NR; ++j) lo[j] = hi[j] = _mm256_setzero_ps();
  for (int p = 0; p < kc; ++p) {
    const __m256 a0 = _mm256_load_ps(ap);
    const __m256 a1 = _mm256_load_ps(ap + 8);
    ap += MR;
#pragma GCC unroll 6
    for (int j = 0; j < NR; ++j) {
      const __m256 bv = _mm256_set1_ps(bp[j]);
      lo[j] = _mm256_fmadd_ps(a0, bv, lo[j]);
      hi[j] = _mm256_fmadd_ps(a1, bv, hi[j]);
    }
    bp += NR;
  }
  for (int j = 0; j < NR; ++j) {
    float* cj = c + static_cast<std::size_t>(j) * ldc;
    _mm256_storeu_ps(cj, _mm256_add_ps(_mm256_loadu_ps(cj), lo[j]));
    _mm256_storeu_ps(cj + 8, _mm256_add_ps(_mm256_loadu_ps(cj + 8), hi[j]));
  }
}

#else

template <class T>
void ukr_generic(int kc, const T* __restrict ap, const T* __restrict bp,
                 T* __restrict c, int ldc) {
  constexpr int MR = Tile<T>::MR, NR = Tile<T>::NR;
  T acc[NR][MR];
  for (int j = 0; j < NR; ++j)
    for (int i = 0; i < MR; ++i) acc[j][i] = T(0);
  for (int p = 0; p < kc; ++p) {
    const T* __restrict a = ap + static_cast<std::size_t>(p) * MR;
    const T* __restrict b = bp + static_cast<std::size_t>(p) * NR;
    for (int j = 0; j < NR; ++j) {
      const T bv = b[j];
      for (int i = 0; i < MR; ++i) acc[j][i] += a[i] * bv;
    }
  }
  for (int j = 0; j < NR; ++j) {
    T* cj = c + static_cast<std::size_t>(j) * ldc;
    for (int i = 0; i < MR; ++i) cj[i] += acc[j][i];
  }
}

void ukr(int kc, const double* ap, const double* bp, double* c, int ldc) {
  ukr_generic<double>(kc, ap, bp, c, ldc);
}
void ukr(int kc, const float* ap, const float* bp, float* c, int ldc) {
  ukr_generic<float>(kc, ap, bp, c, ldc);
}

#endif

// Edge variant: accumulate the full microtile into a scratch block, then add
// only the valid mr x nr corner into C. The padded lanes multiply packed
// zeros, so they never contaminate valid output.
template <class T>
void ukr_edge(int kc, const T* ap, const T* bp, T* c, int ldc, int mr,
              int nr) {
  constexpr int MR = Tile<T>::MR, NR = Tile<T>::NR;
  alignas(kMatrixAlign) T tmp[MR * NR];
  for (int x = 0; x < MR * NR; ++x) tmp[x] = T(0);
  ukr(kc, ap, bp, tmp, MR);
  for (int j = 0; j < nr; ++j) {
    T* cj = c + static_cast<std::size_t>(j) * ldc;
    for (int i = 0; i < mr; ++i) cj[i] += tmp[i + j * MR];
  }
}

// ---------------------------------------------------------------------------
// Packing. Apack: row-microtile panels, MR rows contiguous per k step,
// zero-padded to a whole microtile. Bpack: column panels, NR columns
// contiguous per k step, alpha folded in (so the A pack stays alpha-free and
// shareable across batched calls with different alphas).
// ---------------------------------------------------------------------------
template <class T>
struct Workspace {
  AlignedBufferT<T> apack, bpack;
};
template <class T>
Workspace<T>& workspace() {
  thread_local Workspace<T> w;
  return w;
}

// Shared-operand pack memoization for the *_batch entry points: remembers
// what the thread's apack/bpack currently hold. Consulted only inside a
// PackCacheScope. A key matches when the identical source region would be
// packed with identical geometry; [lo, hi) is the source view's address
// range, used to drop the cache when a batched task writes into it.
template <class T>
struct PackKey {
  const T* data = nullptr;
  const T* lo = nullptr;
  const T* hi = nullptr;
  int r0 = 0, c0 = 0, rows = 0, cols = 0, ld = 0;
  bool trans = false;
  T alpha = T(1);  // only meaningful for B packs
  bool valid = false;

  void set(ConstMatrixViewT<T> v, int r0_, int c0_, int rows_, int cols_,
           bool trans_, T alpha_) {
    data = v.data();
    lo = v.data();
    hi = v.data() + static_cast<std::size_t>(v.cols() - 1) * v.ld() + v.rows();
    r0 = r0_;
    c0 = c0_;
    rows = rows_;
    cols = cols_;
    ld = v.ld();
    trans = trans_;
    alpha = alpha_;
    valid = true;
  }
  [[nodiscard]] bool matches(ConstMatrixViewT<T> v, int r0_, int c0_,
                             int rows_, int cols_, bool trans_,
                             T alpha_) const {
    return valid && data == v.data() && ld == v.ld() && r0 == r0_ &&
           c0 == c0_ && rows == rows_ && cols == cols_ && trans == trans_ &&
           alpha == alpha_;
  }
};
template <class T>
struct PackCache {
  bool enabled = false;
  PackKey<T> a, b;
};
template <class T>
PackCache<T>& pack_cache() {
  thread_local PackCache<T> c;
  return c;
}

template <class T>
void invalidate_overlapping(ConstMatrixViewT<T> c) {
  PackCache<T>& pc = pack_cache<T>();
  if (!pc.enabled || c.empty()) return;
  const T* lo = c.data();
  const T* hi =
      c.data() + static_cast<std::size_t>(c.cols() - 1) * c.ld() + c.rows();
  auto overlaps = [&](const PackKey<T>& k) {
    return k.valid && k.lo < hi && lo < k.hi;
  };
  if (overlaps(pc.a)) pc.a.valid = false;
  if (overlaps(pc.b)) pc.b.valid = false;
}

/// Pack op(A)[i0:i0+mc, p0:p0+kcb] into MR-row microtile panels.
/// `trans` means the source is stored transposed (op reads a(p, i)).
template <class T>
void pack_a(ConstMatrixViewT<T> a, bool trans, int i0, int p0, int mc, int kcb,
            T* buf) {
  constexpr int MR = Tile<T>::MR;
  const int mtiles = (mc + MR - 1) / MR;
  for (int t = 0; t < mtiles; ++t) {
    const int ir = t * MR;
    const int mr = std::min(MR, mc - ir);
    T* dst = buf + static_cast<std::size_t>(t) * MR * kcb;
    if (!trans) {
      for (int p = 0; p < kcb; ++p) {
        const T* src = a.col(p0 + p) + i0 + ir;
        T* d = dst + static_cast<std::size_t>(p) * MR;
        for (int i = 0; i < mr; ++i) d[i] = src[i];
        for (int i = mr; i < MR; ++i) d[i] = T(0);
      }
    } else {
      // op(A)(i, p) = a(p, i): a source column holds one op-row, so walk the
      // contiguous source column per row i and scatter it across k slots.
      if (mr < MR) {
        for (int p = 0; p < kcb; ++p) {
          T* d = dst + static_cast<std::size_t>(p) * MR;
          for (int i = mr; i < MR; ++i) d[i] = T(0);
        }
      }
      for (int i = 0; i < mr; ++i) {
        const T* src = a.col(i0 + ir + i) + p0;
        T* d = dst + i;
        for (int p = 0; p < kcb; ++p)
          d[static_cast<std::size_t>(p) * MR] = src[p];
      }
    }
  }
}

/// Pack alpha * op(B)[p0:p0+kcb, j0:j0+nc] into NR-column panels.
template <class T>
void pack_b(T alpha, ConstMatrixViewT<T> b, bool trans, int p0, int j0,
            int kcb, int nc, T* buf) {
  constexpr int NR = Tile<T>::NR;
  const int ntiles = (nc + NR - 1) / NR;
  for (int t = 0; t < ntiles; ++t) {
    const int jr = t * NR;
    const int nr = std::min(NR, nc - jr);
    T* dst = buf + static_cast<std::size_t>(t) * NR * kcb;
    if (!trans) {
      if (nr < NR) {
        for (int p = 0; p < kcb; ++p) {
          T* d = dst + static_cast<std::size_t>(p) * NR;
          for (int j = nr; j < NR; ++j) d[j] = T(0);
        }
      }
      for (int j = 0; j < nr; ++j) {
        const T* src = b.col(j0 + jr + j) + p0;
        T* d = dst + j;
        for (int p = 0; p < kcb; ++p)
          d[static_cast<std::size_t>(p) * NR] = alpha * src[p];
      }
    } else {
      // op(B)(p, j) = b(j, p): source column p0 + p holds op-row p.
      for (int p = 0; p < kcb; ++p) {
        const T* src = b.col(p0 + p) + j0 + jr;
        T* d = dst + static_cast<std::size_t>(p) * NR;
        for (int j = 0; j < nr; ++j) d[j] = alpha * src[j];
        for (int j = nr; j < NR; ++j) d[j] = T(0);
      }
    }
  }
}

// Per-thread width-stable dispatch mode (detail::WidthStableScope). Kept
// thread_local because the solve bodies that open the scope execute on
// arbitrary pool workers — the mode must travel with the body, not with the
// caller that queued it. Shared by both precisions: a width-stable fp32
// solve keeps the same contract as the fp64 one.
thread_local bool width_stable_mode = false;

template <class T>
bool use_blocked_impl(int m, int n, int k) noexcept {
  constexpr int MR = Tile<T>::MR, NR = Tile<T>::NR;
  if (width_stable_mode) {
    // Width-stable: decide as if the gemm were NR columns wide, so the path
    // (and each column's summation order) cannot depend on how many columns
    // actually ride along. n == 0 still short-circuits in gemm itself.
    return m >= MR && k >= 8 && static_cast<long long>(m) * k * NR >= 16LL * 1024;
  }
  // Below one microtile in either output dimension, or with a trivial inner
  // dimension, packing costs more than it saves.
  if (m < MR || n < NR || k < 8) return false;
  // Tiny totals: the naive sweep finishes before the panels are even packed.
  return static_cast<long long>(m) * n * k >= 16LL * 1024;
}

template <class T>
void gemm_accum_blocked_impl(T alpha, ConstMatrixViewT<T> a, Trans ta,
                             ConstMatrixViewT<T> b, Trans tb,
                             MatrixViewT<T> c) {
  constexpr int MR = Tile<T>::MR, NR = Tile<T>::NR;
  const int m = c.rows(), n = c.cols();
  const int k = (ta == Trans::No) ? a.cols() : a.rows();
  const bool at = (ta == Trans::Yes), bt = (tb == Trans::Yes);

  Workspace<T>& w = workspace<T>();
  w.apack.resize(static_cast<std::size_t>(MC) * KC);
  w.bpack.resize(static_cast<std::size_t>(NC + NR) * KC);
  PackCache<T>& pc = pack_cache<T>();

  for (int jc = 0; jc < n; jc += NC) {
    const int nc = std::min(NC, n - jc);
    for (int p0 = 0; p0 < k; p0 += KC) {
      const int kcb = std::min(KC, k - p0);
      if (!pc.enabled || !pc.b.matches(b, p0, jc, kcb, nc, bt, alpha)) {
        pack_b<T>(alpha, b, bt, p0, jc, kcb, nc, w.bpack.data());
        if (pc.enabled) pc.b.set(b, p0, jc, kcb, nc, bt, alpha);
      }
      for (int ic = 0; ic < m; ic += MC) {
        const int mc = std::min(MC, m - ic);
        if (!pc.enabled || !pc.a.matches(a, ic, p0, mc, kcb, at, T(1))) {
          pack_a<T>(a, at, ic, p0, mc, kcb, w.apack.data());
          if (pc.enabled) pc.a.set(a, ic, p0, mc, kcb, at, T(1));
        }
        // Macrokernel: stream B slivers against the resident A tile.
        for (int jr = 0; jr < nc; jr += NR) {
          const int nr = std::min(NR, nc - jr);
          const T* bp =
              w.bpack.data() + static_cast<std::size_t>(jr / NR) * NR * kcb;
          for (int ir = 0; ir < mc; ir += MR) {
            const int mr = std::min(MR, mc - ir);
            const T* ap =
                w.apack.data() + static_cast<std::size_t>(ir / MR) * MR * kcb;
            T* cp = c.col(jc + jr) + ic + ir;
            if (mr == MR && nr == NR) {
              ukr(kcb, ap, bp, cp, c.ld());
            } else {
              ukr_edge<T>(kcb, ap, bp, cp, c.ld(), mr, nr);
            }
          }
        }
      }
    }
  }
  if (pc.enabled) {
    // The buffers hold only the LAST packed tile; a multi-tile operand's key
    // must not survive into the next call.
    if (m > MC || k > KC) pc.a.valid = false;
    if (n > NC || k > KC) pc.b.valid = false;
    invalidate_overlapping<T>(c);
  }
}

template <class T>
void gemm_nocount_impl(T alpha, ConstMatrixViewT<T> a, Trans ta,
                       ConstMatrixViewT<T> b, Trans tb, T beta,
                       MatrixViewT<T> c) {
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

  if (use_blocked_impl<T>(m, n, ka)) {
    gemm_accum_blocked_impl<T>(alpha, a, ta, b, tb, c);
  } else {
    naive::gemm(alpha, a, ta, b, tb, 1.0, c);  // C pre-scaled above
    invalidate_overlapping<T>(c);
  }
}

// ---------------------------------------------------------------------------
// y = Aᵀx. Each column's dot product accumulates into one vector of per-lane
// partial sums (a GCC/Clang vector type: one zmm on AVX-512, one ymm
// otherwise), and eight columns share each load of x, which also gives the
// FMA pipes eight independent chains. The lanes are then summed pairwise and
// the m % lanes tail added, in one fixed order, so the bits of y[j] do not
// depend on how the columns were grouped.
// ---------------------------------------------------------------------------
#if defined(__AVX512F__)
constexpr int kVecBytes = 64;
#else
constexpr int kVecBytes = 32;
#endif

template <class T, int Bytes>
struct Vec {
  typedef T type __attribute__((vector_size(Bytes)));
};

// Pairwise lane sum: fold the upper half onto the lower until two lanes are
// left (log2(lanes) dependent adds, each step a register shuffle).
template <class V, std::size_t... I>
auto fold_halves(V v, std::index_sequence<I...>) {
  return __builtin_shufflevector(v, v, I...) +
         __builtin_shufflevector(v, v, (I + sizeof...(I))...);
}
template <class T, class V>
T sum_lanes(V v) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(T);
  if constexpr (kLanes == 2) {
    return v[0] + v[1];
  } else {
    return sum_lanes<T>(fold_halves(v, std::make_index_sequence<kLanes / 2>{}));
  }
}

template <class T>
void gemv_t_impl(ConstMatrixViewT<T> a, const T* x, T* y) {
  using V = typename Vec<T, kVecBytes>::type;
  constexpr int kLanes = kVecBytes / sizeof(T);
  constexpr int kCols = 8;
  const int m = a.rows(), n = a.cols();
  const int mv = m - m % kLanes;
  auto load = [](const T* p) {
    V v;
    std::memcpy(&v, p, sizeof v);
    return v;
  };
  auto finish = [&](V acc, const T* c) {
    T s = sum_lanes<T>(acc);
    for (int i = mv; i < m; ++i) s += c[i] * x[i];
    return s;
  };
  int j = 0;
  for (; j + kCols <= n; j += kCols) {
    const T* c[kCols];
    for (int l = 0; l < kCols; ++l) c[l] = a.col(j + l);
    V s0 = {}, s1 = {}, s2 = {}, s3 = {}, s4 = {}, s5 = {}, s6 = {}, s7 = {};
    for (int i = 0; i < mv; i += kLanes) {
      const V xv = load(x + i);
      s0 += load(c[0] + i) * xv;
      s1 += load(c[1] + i) * xv;
      s2 += load(c[2] + i) * xv;
      s3 += load(c[3] + i) * xv;
      s4 += load(c[4] + i) * xv;
      s5 += load(c[5] + i) * xv;
      s6 += load(c[6] + i) * xv;
      s7 += load(c[7] + i) * xv;
    }
    y[j] = finish(s0, c[0]);
    y[j + 1] = finish(s1, c[1]);
    y[j + 2] = finish(s2, c[2]);
    y[j + 3] = finish(s3, c[3]);
    y[j + 4] = finish(s4, c[4]);
    y[j + 5] = finish(s5, c[5]);
    y[j + 6] = finish(s6, c[6]);
    y[j + 7] = finish(s7, c[7]);
  }
  for (; j < n; ++j) {
    const T* c0 = a.col(j);
    V acc = {};
    for (int i = 0; i < mv; i += kLanes) acc += load(c0 + i) * load(x + i);
    y[j] = finish(acc, c0);
  }
}

}  // namespace

GemmTiling gemm_tiling() noexcept {
  return {Tile<double>::MR, Tile<double>::NR, MC, KC, NC, kIsa};
}

GemmTiling gemm_tiling_f32() noexcept {
  return {Tile<float>::MR, Tile<float>::NR, MC, KC, NC, kIsa};
}

namespace detail {

bool use_blocked(int m, int n, int k) noexcept {
  return use_blocked_impl<double>(m, n, k);
}

bool use_blocked_f32(int m, int n, int k) noexcept {
  return use_blocked_impl<float>(m, n, k);
}

void gemm_accum_blocked(double alpha, ConstMatrixView a, Trans ta,
                        ConstMatrixView b, Trans tb, MatrixView c) {
  gemm_accum_blocked_impl<double>(alpha, a, ta, b, tb, c);
}

void gemm_accum_blocked(double alpha, ConstMatrixViewF a, Trans ta,
                        ConstMatrixViewF b, Trans tb, MatrixViewF c) {
  gemm_accum_blocked_impl<float>(static_cast<float>(alpha), a, ta, b, tb, c);
}

void gemm_nocount(double alpha, ConstMatrixView a, Trans ta, ConstMatrixView b,
                  Trans tb, double beta, MatrixView c) {
  gemm_nocount_impl<double>(alpha, a, ta, b, tb, beta, c);
}

void gemm_nocount(double alpha, ConstMatrixViewF a, Trans ta,
                  ConstMatrixViewF b, Trans tb, double beta, MatrixViewF c) {
  gemm_nocount_impl<float>(static_cast<float>(alpha), a, ta, b, tb,
                           static_cast<float>(beta), c);
}

void gemv_t_nocount(ConstMatrixView a, const double* x, double* y) {
  gemv_t_impl<double>(a, x, y);
}

void gemv_t_nocount(ConstMatrixViewF a, const float* x, float* y) {
  gemv_t_impl<float>(a, x, y);
}

void invalidate_packs(ConstMatrixView written) {
  invalidate_overlapping<double>(written);
}

void invalidate_packs(ConstMatrixViewF written) {
  invalidate_overlapping<float>(written);
}

PackCacheScope::PackCacheScope() {
  pack_cache<double>().enabled = true;
  pack_cache<float>().enabled = true;
}

PackCacheScope::~PackCacheScope() {
  PackCache<double>& pd = pack_cache<double>();
  pd.enabled = false;
  pd.a.valid = pd.b.valid = false;
  PackCache<float>& pf = pack_cache<float>();
  pf.enabled = false;
  pf.a.valid = pf.b.valid = false;
}

WidthStableScope::WidthStableScope(bool enable) : prev_(width_stable_mode) {
  // enable == false leaves the thread's current mode untouched (the scope
  // degenerates to a no-op), so call sites can gate on an option bool.
  if (enable) width_stable_mode = true;
}

WidthStableScope::~WidthStableScope() { width_stable_mode = prev_; }

}  // namespace detail
}  // namespace h2
