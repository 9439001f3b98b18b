#include <gtest/gtest.h>

#include "runtime/thread_pool.hpp"
#include "test_helpers.hpp"

namespace h2 {
namespace {

using testing_support::Geometry;
using testing_support::KernelKind;
using testing_support::make_problem;
using testing_support::Problem;
using testing_support::ulv_solution_error;

H2BuildOptions weak_opts(double tol) {
  H2BuildOptions o;
  o.admissibility = {Admissibility::Weak, 0.0};
  o.tol = tol * 1e-2;
  return o;
}
H2BuildOptions strong_opts(double tol, double eta = 0.75) {
  H2BuildOptions o;
  o.admissibility = {Admissibility::Strong, eta};
  o.tol = tol * 1e-2;
  return o;
}

TEST(UlvCore, HssUlvSolvesWeakAdmissibility) {
  // Weak admissibility + multilevel = the HSS-ULV of Sec. II.C.
  const Problem p = make_problem(256, 32, Geometry::Cube, KernelKind::Laplace);
  UlvOptions u;
  u.tol = 1e-9;
  const double err = ulv_solution_error(p, weak_opts(1e-9), u);
  EXPECT_LT(err, 1e-6);
}

TEST(UlvCore, Blr2UlvSingleLevel) {
  // Leaf size >= n/2 gives depth 1: the BLR^2-ULV of Sec. II.B.
  const Problem p = make_problem(128, 64, Geometry::Cube, KernelKind::Laplace);
  EXPECT_EQ(p.tree->depth(), 1);
  UlvOptions u;
  u.tol = 1e-9;
  const double err = ulv_solution_error(p, weak_opts(1e-9), u);
  EXPECT_LT(err, 1e-6);
}

TEST(UlvCore, H2UlvSolvesStrongAdmissibility) {
  // The paper's contribution: strong admissibility, fill-in-augmented bases,
  // no trailing dependencies.
  const Problem p = make_problem(512, 32, Geometry::Cube, KernelKind::Laplace);
  UlvOptions u;
  u.tol = 1e-9;
  const double err = ulv_solution_error(p, strong_opts(1e-9), u);
  EXPECT_LT(err, 1e-5);
}

TEST(UlvCore, DegenerateSingleClusterFallsBackToDenseLu) {
  const Problem p = make_problem(24, 32, Geometry::Cube, KernelKind::Laplace);
  EXPECT_EQ(p.tree->depth(), 0);
  UlvOptions u;
  const double err = ulv_solution_error(p, strong_opts(1e-8), u);
  EXPECT_LT(err, 1e-10);
}

TEST(UlvCore, MultipleRightHandSides) {
  const Problem p = make_problem(256, 32, Geometry::Cube, KernelKind::Laplace);
  H2BuildOptions ho = strong_opts(1e-10);
  const H2Matrix h(*p.tree, *p.kernel, ho);
  UlvOptions u;
  u.tol = 1e-10;
  const UlvFactorization f(h, u);
  Rng rng(3);
  Matrix b = Matrix::random(256, 4, rng);
  Matrix x = b;
  f.solve(x);
  const Matrix a = kernel_dense(*p.kernel, p.tree->points());
  const Matrix x_ref = lu_solve(a, b);
  EXPECT_LT(rel_error_fro(x, x_ref), 1e-5);
}

TEST(UlvCore, SequentialModeMatchesParallelMode) {
  const Problem p = make_problem(384, 32, Geometry::Cube, KernelKind::Laplace);
  UlvOptions par;
  par.tol = 1e-9;
  UlvOptions seq = par;
  seq.mode = UlvMode::Sequential;
  const double e_par = ulv_solution_error(p, strong_opts(1e-9), par);
  const double e_seq = ulv_solution_error(p, strong_opts(1e-9), seq);
  EXPECT_LT(e_par, 1e-5);
  EXPECT_LT(e_seq, 1e-5);
}

TEST(UlvCore, FillinAugmentationIsRequiredForStrongAdmissibility) {
  // The paper's central ablation: without folding the pre-computed fill-ins
  // into the shared bases, the dropped cross-block updates are O(1) and the
  // solve degrades by orders of magnitude.
  const Problem p = make_problem(512, 32, Geometry::Cube, KernelKind::Laplace);
  UlvOptions with;
  with.tol = 1e-9;
  with.measure_dropped = true;
  UlvOptions without = with;
  without.fillin_augmentation = false;
  UlvStats s_with, s_without;
  const double e_with = ulv_solution_error(p, strong_opts(1e-9), with, &s_with);
  const double e_without =
      ulv_solution_error(p, strong_opts(1e-9), without, &s_without);
  EXPECT_LT(e_with, 1e-5);
  EXPECT_GT(e_without, 10 * e_with);
  EXPECT_LT(s_with.dropped_mass, s_without.dropped_mass);
}

TEST(UlvCore, WeakAdmissibilityDropsNothing) {
  // HSS-ULV has no cross-block Schur terms at all: dropped mass must be 0.
  const Problem p = make_problem(256, 32, Geometry::Cube, KernelKind::Laplace);
  UlvOptions u;
  u.tol = 1e-8;
  u.measure_dropped = true;
  UlvStats stats;
  (void)ulv_solution_error(p, weak_opts(1e-8), u, &stats);
  EXPECT_EQ(stats.dropped_mass, 0.0);
}

TEST(UlvCore, LogAbsDetMatchesDense) {
  const Problem p = make_problem(256, 32, Geometry::Cube, KernelKind::Matern);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-10));
  UlvOptions u;
  u.tol = 1e-10;
  const UlvFactorization f(h, u);
  Matrix a = kernel_dense(*p.kernel, p.tree->points());
  std::vector<int> piv;
  getrf(a, piv);
  const double want = lu_logabsdet(a, piv);
  EXPECT_NEAR(f.logabsdet(), want, 1e-4 * std::abs(want));
}

TEST(UlvCore, ThreadedExecutionMatchesSerial) {
  // The single-worker free DAG against the barrier shape on a 4-worker
  // pool: same tasks, same bits.
  const Problem p = make_problem(384, 32, Geometry::Cube, KernelKind::Laplace);
  UlvOptions serial;
  serial.tol = 1e-9;
  serial.n_workers = 1;
  UlvOptions threaded = serial;
  threaded.executor = UlvExecutor::PhaseLoops;
  ThreadPool pool(4);
  threaded.pool = &pool;
  const double e1 = ulv_solution_error(p, strong_opts(1e-9), serial);
  const double e2 = ulv_solution_error(p, strong_opts(1e-9), threaded);
  EXPECT_LT(e1, 1e-5);
  EXPECT_EQ(e2, e1);
}

TEST(UlvCore, RanksAreRecordedAndBounded) {
  const Problem p = make_problem(512, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-6));
  UlvOptions u;
  u.tol = 1e-6;
  const UlvFactorization f(h, u);
  const UlvStats& s = f.stats();
  ASSERT_EQ(static_cast<int>(s.ranks.size()), p.tree->depth() + 1);
  for (int l = p.tree->depth(); l >= 1; --l)
    EXPECT_EQ(static_cast<int>(s.ranks[l].size()), 1 << l);
  EXPECT_GT(s.max_rank, 0);
  // Leaf ranks are bounded by the leaf size; upper-level ranks may exceed it
  // (the paper reports up to ~180 at upper levels vs 50 at BLR leaves).
  for (const int r : s.ranks[p.tree->depth()]) EXPECT_LE(r, 32);
  EXPECT_LE(s.max_rank, 128);
}

TEST(UlvCore, MaxRankCapRespected) {
  const Problem p = make_problem(512, 64, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-10));
  UlvOptions u;
  u.tol = 1e-12;
  u.max_rank = 9;
  const UlvFactorization f(h, u);
  EXPECT_LE(f.stats().max_rank, 9);
}

TEST(UlvCore, TaskRecordingCoversAllLevels) {
  const Problem p = make_problem(256, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-8));
  UlvOptions u;
  u.tol = 1e-8;
  u.record_tasks = true;
  const UlvFactorization f(h, u);
  const auto& tasks = f.stats().tasks;
  EXPECT_FALSE(tasks.empty());
  std::vector<bool> level_seen(p.tree->depth() + 1, false);
  for (const auto& t : tasks) {
    ASSERT_GE(t.level, 0);
    ASSERT_LE(t.level, p.tree->depth());
    level_seen[t.level] = true;
    EXPECT_GE(t.seconds, 0.0);
  }
  for (int l = 0; l <= p.tree->depth(); ++l) EXPECT_TRUE(level_seen[l]);
  // The log is derived from the execution trace: one row per compute task,
  // none for the ry/assemble roots or the release control tasks.
  std::size_t compute = 0;
  for (const TaskRecord& r : f.stats().exec.records)
    compute += r.label != "ry" && r.label != "assemble" &&
               r.label != "dropped" && r.label.rfind("release", 0) != 0;
  EXPECT_EQ(tasks.size(), compute);
  for (const auto& t : tasks) {
    const std::string kind = t.kind;
    EXPECT_TRUE(kind != "ry" && kind != "assemble" && kind != "barrier" &&
                kind.rfind("release", 0) != 0)
        << kind;
  }
}

}  // namespace
}  // namespace h2
