// The fp32 lifecycle contracts that make Precision::F32 a first-class axis
// rather than a demo: fp32 runs are bitwise identical across DAG shapes
// and worker counts (the same determinism contract fp64 carries);
// fp32 factor blocks survive SpillStore round-trips bit for bit at HALF the
// fp64 spill bytes; the fp32 peak factor footprint lands at half of fp64's
// (<= 0.55x with slack); and the recorded DAG reports fp32 task payloads at
// their real byte sizes with the flop counts unchanged.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "test_helpers.hpp"

namespace h2 {
namespace {

using testing_support::Geometry;
using testing_support::KernelKind;
using testing_support::make_problem;
using testing_support::Problem;

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<std::size_t>(a.rows()) *
                         static_cast<std::size_t>(a.cols())) == 0;
}

H2BuildOptions strong_opts(double tol) {
  H2BuildOptions o;
  o.admissibility = {Admissibility::Strong, 0.75};
  o.tol = tol * 1e-2;
  return o;
}

UlvOptions f32_opts(double tol) {
  UlvOptions u;
  u.tol = tol;
  u.precision = Precision::F32;
  return u;
}

/// Fixed b from Rng(7), solved in place (fp64 in/out; the engine rounds to
/// fp32 internally under Precision::F32).
Matrix solve_fixed(const Problem& p, const UlvFactorization& f) {
  Rng rng(7);
  Matrix x = Matrix::random(p.tree->n_points(), 1, rng);
  f.solve(x);
  return x;
}

/// Scratch directory under the system temp dir, removed on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    static int counter = 0;
    path = (std::filesystem::temp_directory_path() /
            ("h2-prec-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter++)))
               .string();
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

TEST(PrecisionDeterminism, F32BitwiseAcrossShapesAndWorkers) {
  // The determinism contract is per-precision: an fp32 factorization + solve
  // must be bitwise identical no matter which DAG shape ran it or how many
  // workers raced — exactly the guarantee the fp64 path already carries.
  const Problem p = make_problem(512, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-6));

  UlvOptions ref = f32_opts(1e-6);
  ref.n_workers = 1;
  const UlvFactorization fref(h, ref);
  const Matrix x_ref = solve_fixed(p, fref);
  const double ld_ref = fref.logabsdet();
  ASSERT_EQ(fref.precision(), Precision::F32);

  const UlvExecutor executors[] = {UlvExecutor::TaskDag,
                                   UlvExecutor::PhaseLoops};
  const int workers[] = {1, 4, 8};
  for (const UlvExecutor ex : executors) {
    for (const int w : workers) {
      UlvOptions u = f32_opts(1e-6);
      u.executor = ex;
      u.n_workers = w;
      const UlvFactorization f(h, u);
      EXPECT_TRUE(bitwise_equal(solve_fixed(p, f), x_ref))
          << "executor " << static_cast<int>(ex) << " workers " << w;
      EXPECT_EQ(f.logabsdet(), ld_ref);
    }
  }
}

TEST(PrecisionDeterminism, F32SpillRoundTripsBitwiseAtHalfTheBytes) {
  // Spilling moves bytes, never transforms them — so an fp32 factorization
  // forced through a budget-0 (pure disk) spill tier must reproduce the
  // in-RAM fp32 answer bit for bit. And because fp32 blocks are written at
  // their real element size, the same blocks spill at exactly half the fp64
  // payload bytes.
  const Problem p = make_problem(512, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-6));

  const UlvFactorization fref(h, f32_opts(1e-6));
  const Matrix x_ref = solve_fixed(p, fref);

  TempDir tmp;
  auto spill_opts = [&](Precision prec) {
    UlvOptions u;
    u.tol = 1e-6;
    u.precision = prec;
    u.spill_dir = tmp.path;
    u.spill_budget_bytes = 0;  // nothing stays resident between sweeps
    return u;
  };
  const UlvFactorization f32(h, spill_opts(Precision::F32));
  EXPECT_TRUE(bitwise_equal(solve_fixed(p, f32), x_ref));
  const UlvStats s32 = f32.stats();
  ASSERT_GT(s32.spilled_blocks, 0u) << "nothing ever hit the disk";
  ASSERT_GT(s32.spilled_bytes, 0u);

  const UlvFactorization f64(h, spill_opts(Precision::F64));
  const UlvStats s64 = f64.stats();
  EXPECT_EQ(s32.spilled_blocks, s64.spilled_blocks)
      << "precision changed WHICH blocks spill";
  EXPECT_EQ(2 * s32.spilled_bytes, s64.spilled_bytes)
      << "fp32 blocks must spill at half the fp64 payload";
}

TEST(PrecisionDeterminism, F32PeakFactorBytesAtMostHalfOfF64) {
  // The acceptance bound on the tentpole's memory claim: with byte-true
  // accounting, the fp32 factorization's peak resident factor bytes come in
  // at <= 0.55x the fp64 peak (0.5 exactly, plus slack for the fp64
  // reflectors/pivot scratch that does not shrink). The fp64 factorization
  // is scoped so it is destroyed before the fp32 one builds — the peak gauge
  // is a process-global high-water mark measured per factorization window.
  const Problem p = make_problem(512, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-6));

  std::uint64_t peak64 = 0;
  {
    UlvOptions u;
    u.tol = 1e-6;
    const UlvFactorization f(h, u);
    peak64 = f.stats().peak_block_bytes;
  }
  ASSERT_GT(peak64, 0u);

  const UlvFactorization f(h, f32_opts(1e-6));
  const std::uint64_t peak32 = f.stats().peak_block_bytes;
  ASSERT_GT(peak32, 0u);
  EXPECT_LE(static_cast<double>(peak32), 0.55 * static_cast<double>(peak64))
      << "fp32 peak " << peak32 << " vs fp64 peak " << peak64;
}

TEST(PrecisionDeterminism, RecordedOutBytesHalvedAndFlopsUnchanged) {
  // Truthful accounting under the precision axis: the recorded DAG for an
  // fp32 run has the same tasks and the same flop count as the fp64 run
  // (ranks are fixed by the shared fp64 H2 skeleton; flops count operations,
  // not bytes), while every recorded task payload is exactly half — bytes
  // are sizeof(T)-true, not hard-coded 8.
  const Problem p = make_problem(512, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-6));

  auto rec_opts = [](Precision prec) {
    UlvOptions u;
    u.tol = 1e-6;
    u.precision = prec;
    u.record_tasks = true;
    u.executor = UlvExecutor::TaskDag;
    return u;
  };
  const UlvFactorization f64(h, rec_opts(Precision::F64));
  const UlvFactorization f32(h, rec_opts(Precision::F32));
  const UlvStats s64 = f64.stats();
  const UlvStats s32 = f32.stats();

  ASSERT_FALSE(s64.dag.empty());
  ASSERT_EQ(s64.dag.n_tasks(), s32.dag.n_tasks());
  EXPECT_EQ(s64.factor_flops, s32.factor_flops);

  ASSERT_EQ(s64.dag.out_bytes.size(), s64.dag.n_tasks());
  ASSERT_EQ(s32.dag.out_bytes.size(), s32.dag.n_tasks());
  double total64 = 0.0;
  int recorded = 0;
  for (std::size_t t = 0; t < s64.dag.out_bytes.size(); ++t) {
    const double b64 = s64.dag.out_bytes[t];
    const double b32 = s32.dag.out_bytes[t];
    if (b64 <= 0.0) {
      EXPECT_LE(b32, 0.0) << "task " << t << " (" << s64.dag.meta[t].label
                          << ") recorded bytes only under fp32";
      continue;
    }
    ++recorded;
    total64 += b64;
    EXPECT_EQ(b32, 0.5 * b64)
        << "task " << t << " (" << s64.dag.meta[t].label << ")";
  }
  EXPECT_GT(recorded, 0) << "no task ever recorded an output payload";
  EXPECT_GT(total64, 0.0);
}

TEST(PrecisionDeterminism, F32FinalBlockBytesHalved) {
  // The settled factorization (what a long-lived Solver actually holds)
  // shrinks by exactly the element-size ratio: identical block shapes, half
  // the bytes. The gauge is process-global live bytes, so the fp64
  // factorization is scoped out before the fp32 one builds.
  const Problem p = make_problem(512, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-6));
  std::uint64_t final64 = 0;
  {
    UlvOptions u64;
    u64.tol = 1e-6;
    const UlvFactorization f64(h, u64);
    final64 = f64.stats().final_block_bytes;
  }
  ASSERT_GT(final64, 0u);
  const UlvFactorization f32(h, f32_opts(1e-6));
  EXPECT_EQ(2 * f32.stats().final_block_bytes, final64);
}

}  // namespace
}  // namespace h2
