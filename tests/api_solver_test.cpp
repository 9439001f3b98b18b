#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "api/solver.hpp"
#include "linalg/error.hpp"
#include "runtime/block_pool.hpp"
#include "runtime/thread_pool.hpp"
#include "test_helpers.hpp"

namespace h2 {
namespace {

/// A small point-order problem: the facade's contract is that b and x refer
/// to the CALLER's point indexing, so references are computed on the
/// original cloud, no permutation in sight.
struct PointOrderProblem {
  PointCloud pts;
  std::unique_ptr<Kernel> kernel;
  Matrix b;
};

PointOrderProblem make_point_order_problem(int n, int nrhs) {
  PointOrderProblem p;
  Rng rng(5);
  p.pts = uniform_cube(n, rng);
  p.kernel = std::make_unique<LaplaceKernel>(1e-2);
  p.b = Matrix::random(n, nrhs, rng);
  return p;
}

TEST(ApiSolver, FiveLineQuickstartSolvesInPointOrder) {
  const PointOrderProblem p = make_point_order_problem(512, 1);

  // The whole pipeline behind one call; everything below is user code.
  const Solver solver =
      Solver::build(p.pts, *p.kernel, SolverOptions{}.with_tol(1e-8));
  const Matrix x = solver.solve(p.b);

  // Residual straight on the ORIGINAL cloud: no tree ordering anywhere.
  const Matrix a = kernel_dense(*p.kernel, p.pts);
  Matrix ax(512, 1);
  gemm(1.0, a, Trans::No, x, Trans::No, 0.0, ax);
  EXPECT_LT(rel_error_fro(ax, p.b), 1e-5);
  EXPECT_EQ(solver.n(), 512);
  EXPECT_EQ(solver.structure(), SolverStructure::H2);
  ASSERT_NE(solver.ulv_stats(), nullptr);
  EXPECT_GT(solver.max_rank_used(), 0);
  EXPECT_TRUE(std::isfinite(solver.logabsdet()));
}

TEST(ApiSolver, SolveMatchesInPlacePlusPermutation) {
  // solve() == to_tree_order -> solve_in_place -> from_tree_order, bitwise.
  const PointOrderProblem p = make_point_order_problem(384, 3);
  const Solver solver =
      Solver::build(p.pts, *p.kernel, SolverOptions{}.with_tol(1e-8));
  const Matrix x = solver.solve(p.b);
  Matrix manual = solver.tree().to_tree_order(p.b);
  solver.solve_in_place(manual);
  const Matrix x_manual = solver.tree().from_tree_order(manual);
  EXPECT_EQ(rel_error_fro(x, x_manual), 0.0);
}

TEST(ApiSolver, BatchAndAsyncMatchSerialSolvesBitwise) {
  const int n = 384;
  PointOrderProblem p = make_point_order_problem(n, 1);
  const Solver solver =
      Solver::build(p.pts, *p.kernel, SolverOptions{}.with_tol(1e-8));

  Rng rng(11);
  std::vector<Matrix> rhs;
  for (int i = 0; i < 5; ++i) rhs.push_back(Matrix::random(n, 1 + i % 3, rng));

  std::vector<Matrix> serial;
  for (const Matrix& b : rhs) serial.push_back(solver.solve(b));

  const std::vector<Matrix> batched = solver.solve_batch(rhs);
  ASSERT_EQ(batched.size(), rhs.size());
  for (std::size_t i = 0; i < rhs.size(); ++i)
    EXPECT_EQ(rel_error_fro(batched[i], serial[i]), 0.0) << "batch rhs " << i;

  SolveHandle h = solver.solve_async(rhs[0]);
  h.wait();
  EXPECT_TRUE(h.ready());
  const Matrix x_async = h.get();
  EXPECT_EQ(rel_error_fro(x_async, serial[0]), 0.0);
}

TEST(ApiSolver, HandlesOutliveTheSolver) {
  // SolveHandle shares ownership of the factorization: dropping the Solver
  // while solves are in flight is safe.
  const int n = 384;
  PointOrderProblem p = make_point_order_problem(n, 2);
  SolveHandle h = [&] {
    const Solver solver =
        Solver::build(p.pts, *p.kernel, SolverOptions{}.with_tol(1e-8));
    return solver.solve_async(p.b);
  }();  // solver destroyed here
  const Matrix x = h.get();
  const Matrix a = kernel_dense(*p.kernel, p.pts);
  Matrix ax(n, 2);
  gemm(1.0, a, Trans::No, x, Trans::No, 0.0, ax);
  EXPECT_LT(rel_error_fro(ax, p.b), 1e-5);
}

TEST(ApiSolver, AbandonedAsyncSolveOnAPrivatePoolIsSafe) {
  // With n_workers > 0 the factorization owns a private pool. If the
  // queued async task held the LAST Impl reference and ran on that pool,
  // releasing it there would destroy the pool from its own worker
  // (self-join -> terminate). solve_async therefore pipelines on the global pool; this
  // drops every handle and solver reference immediately to prove the
  // teardown path is safe.
  const int n = 256;
  PointOrderProblem p = make_point_order_problem(n, 1);
  {
    const Solver solver = Solver::build(
        p.pts, *p.kernel,
        SolverOptions{}.with_tol(1e-8).with_workers(2));
    (void)solver.solve_async(p.b);  // handle discarded, solver dropped next
  }
  ThreadPool::global().wait_idle();  // the abandoned task must finish cleanly
}

TEST(ApiSolver, AsyncFromThePoolItselfDoesNotDeadlock) {
  // A solve_async issued from a worker of the pipelining pool runs inline
  // instead of deadlocking behind itself.
  const int n = 256;
  PointOrderProblem p = make_point_order_problem(n, 1);
  ThreadPool pool(1);
  const Solver solver = Solver::build(
      p.pts, *p.kernel, SolverOptions{}.with_tol(1e-8).with_pool(&pool));
  const Matrix direct = solver.solve(p.b);
  Matrix nested;
  pool.submit([&] { nested = solver.solve_async(p.b).get(); });
  pool.wait_idle();
  EXPECT_EQ(rel_error_fro(nested, direct), 0.0);
}

TEST(ApiSolver, EveryStructureSolvesTheSameSystem) {
  // One geometry, four representations — the facade's structure switch.
  // All four must solve the (SPD) Laplace system; the hierarchical shared-
  // basis families to their tolerance, the baselines to theirs.
  const int n = 512;
  const PointOrderProblem p = make_point_order_problem(n, 1);
  const Matrix a = kernel_dense(*p.kernel, p.pts);
  for (const SolverStructure st :
       {SolverStructure::H2, SolverStructure::HSS, SolverStructure::BLR,
        SolverStructure::HODLR}) {
    const Solver solver = Solver::build(
        p.pts, *p.kernel,
        SolverOptions{}.with_structure(st).with_tol(1e-8).with_leaf_size(64));
    const Matrix x = solver.solve(p.b);
    Matrix ax(n, 1);
    gemm(1.0, a, Trans::No, x, Trans::No, 0.0, ax);
    EXPECT_LT(rel_error_fro(ax, p.b), 1e-4) << "structure " << static_cast<int>(st);
    EXPECT_TRUE(std::isfinite(solver.logabsdet()));
    // BLR may legitimately store every near-field tile dense (rank 0).
    if (st != SolverStructure::BLR) {
      EXPECT_GT(solver.max_rank_used(), 0);
    }
    if (st == SolverStructure::H2 || st == SolverStructure::HSS)
      EXPECT_NE(solver.ulv_stats(), nullptr);
    else
      EXPECT_EQ(solver.ulv_stats(), nullptr);
  }
}

TEST(ApiSolver, MultiRhsSolveMatchesUlvCore) {
  // The facade adds permutation, not arithmetic: a hand-wired core-API
  // pipeline over the facade's OWN tree must agree bitwise.
  const PointOrderProblem p = make_point_order_problem(384, 4);
  const Solver solver = Solver::build(
      p.pts, *p.kernel, SolverOptions{}.with_tol(1e-8).with_leaf_size(32));

  H2BuildOptions ho;
  ho.admissibility = {Admissibility::Strong, 0.75};
  ho.tol = 1e-10;  // the facade's build_tol_factor * tol
  const H2Matrix h(solver.tree(), *p.kernel, ho);
  UlvOptions uo;
  uo.tol = 1e-8;
  const UlvFactorization f(h, uo);

  Matrix x_core = solver.tree().to_tree_order(p.b);
  f.solve(x_core);
  const Matrix x_facade = solver.solve(p.b);
  EXPECT_EQ(
      rel_error_fro(x_facade, solver.tree().from_tree_order(x_core)), 0.0);
}

TEST(ApiSolver, SolveStatsSurfaceThroughFacadeAndHandle) {
  const PointOrderProblem p = make_point_order_problem(384, 2);
  // n_workers > 0: the factorization owns ONE private pool, so direct
  // solves run the DAG on it — and async solves pipelining on the GLOBAL
  // pool still execute their inner DAG on the private one, so the handle's
  // stats snapshot is populated too.
  const Solver solver = Solver::build(
      p.pts, *p.kernel, SolverOptions{}.with_tol(1e-8).with_workers(2));
  EXPECT_TRUE(solver.last_solve_stats().records.empty()) << "before any solve";

  const Matrix x = solver.solve(p.b);
  const ExecStats direct = solver.last_solve_stats();
  ASSERT_FALSE(direct.records.empty());
  EXPECT_EQ(direct.n_workers, 2);
  std::uint64_t executed = 0;
  for (const auto& w : direct.worker_counters) executed += w.executed;
  EXPECT_EQ(executed, direct.records.size());

  SolveHandle handle = solver.solve_async(p.b);
  const Matrix x_async = handle.get();
  EXPECT_EQ(rel_error_fro(x_async, x), 0.0);
  EXPECT_FALSE(handle.stats().records.empty());
  EXPECT_EQ(handle.stats().n_workers, 2);

  // With the DEFAULT pool wiring an async solve pipelines on the global
  // pool and runs its sweep inline — no new DAG trace. The handle must
  // come back EMPTY rather than re-serving the direct solve's stale trace
  // as its own.
  const Solver global_solver =
      Solver::build(p.pts, *p.kernel, SolverOptions{}.with_tol(1e-8));
  (void)global_solver.solve(p.b);  // populates last_solve_stats
  ASSERT_FALSE(global_solver.last_solve_stats().records.empty());
  SolveHandle inline_handle = global_solver.solve_async(p.b);
  (void)inline_handle.get();
  EXPECT_TRUE(inline_handle.stats().records.empty());
}

TEST(ApiSolver, SingularCloudThrowsOnTheCallerUnderEveryShape) {
  // Every odd point duplicates its predecessor: two identical rows, an
  // exactly singular pivot inside some factorization task. The task's
  // NumericalError must reach build()'s caller under every DAG shape — not
  // terminate the worker it ran on — and the failed factorization must
  // hand back every block byte it charged.
  Rng rng(11);
  PointCloud pts = uniform_cube(1024, rng);
  for (std::size_t i = 1; i < pts.size(); i += 2) pts[i] = pts[i - 1];
  const LaplaceKernel kernel(1e-2);
  struct Shape {
    UlvMode mode;
    UlvExecutor executor;
    const char* name;
  };
  const Shape shapes[] = {
      {UlvMode::Parallel, UlvExecutor::TaskDag, "free DAG"},
      {UlvMode::Parallel, UlvExecutor::PhaseLoops, "barrier shape"},
      {UlvMode::Sequential, UlvExecutor::TaskDag, "sequential"}};
  for (const Shape& sh : shapes) {
    const std::uint64_t live0 = blockmem::live();
    EXPECT_THROW((void)Solver::build(pts, kernel,
                                     SolverOptions{}
                                         .with_workers(2)
                                         .with_mode(sh.mode)
                                         .with_executor(sh.executor)),
                 NumericalError)
        << sh.name;
    EXPECT_EQ(blockmem::live(), live0) << sh.name;
  }
}

/// Relative residual ||A x - b|| / ||b|| of an H2 solve on `pts` at
/// `precision` (0 for an empty cloud, whose solve must still succeed).
double degenerate_residual(const PointCloud& pts, Precision precision) {
  const LaplaceKernel kernel(1e-2);
  const int n = static_cast<int>(pts.size());
  const Solver solver = Solver::build(
      pts, kernel, SolverOptions{}.with_tol(1e-8).with_precision(precision));
  EXPECT_EQ(solver.n(), n);
  Rng rng(3);
  const Matrix b = Matrix::random(n, 1, rng);
  const Matrix x = solver.solve(b);
  EXPECT_EQ(x.rows(), n);
  if (n == 0) return 0.0;
  const Matrix a = kernel_dense(kernel, pts);
  Matrix ax(n, 1);
  gemm(1.0, a, Trans::No, x, Trans::No, 0.0, ax);
  return rel_error_fro(ax, b);
}

TEST(ApiSolver, DegenerateCloudsSolveOrFailTyped) {
  // Degenerate geometry sends zero, rank-deficient and narrower-than-a-panel
  // concatenations through the fill and basis compressions: a plane, a line,
  // a cube squashed 1e6:1 along one axis, fewer points than one leaf, and no
  // points at all must each solve to the residual bound at both precisions.
  // Duplicated points make the matrix exactly singular and must end in a
  // typed NumericalError instead.
  Rng rng(21);
  PointCloud planar = uniform_cube(768, rng);
  for (Point& q : planar) q.z = 0.0;
  PointCloud collinear = uniform_cube(512, rng);
  for (Point& q : collinear) q.y = q.z = 0.0;
  PointCloud anisotropic = uniform_cube(768, rng);
  for (Point& q : anisotropic) {
    q.x *= 1e3;
    q.z *= 1e-3;
  }
  const PointCloud tiny = uniform_cube(50, rng);  // below the 128-point leaf
  const PointCloud empty;
  PointCloud duplicated = uniform_cube(512, rng);
  for (std::size_t i = 1; i < duplicated.size(); i += 2)
    duplicated[i] = duplicated[i - 1];

  struct Case {
    const char* name;
    const PointCloud* pts;
  };
  const Case cases[] = {{"planar", &planar},
                        {"collinear", &collinear},
                        {"anisotropic 1e6", &anisotropic},
                        {"N < leaf", &tiny},
                        {"N = 0", &empty}};
  for (const Precision precision : {Precision::F64, Precision::F32}) {
    const char* prec = precision == Precision::F64 ? "fp64" : "fp32";
    for (const Case& c : cases)
      EXPECT_LT(degenerate_residual(*c.pts, precision), 1e-5)
          << c.name << " " << prec;
    EXPECT_THROW((void)Solver::build(duplicated, LaplaceKernel(1e-2),
                                     SolverOptions{}.with_precision(precision)),
                 NumericalError)
        << "duplicated " << prec;
  }
}

TEST(ApiSolver, OptionsValidation) {
  const PointOrderProblem p = make_point_order_problem(64, 1);
  EXPECT_THROW(Solver::build(p.pts, *p.kernel, SolverOptions{}.with_tol(0.0)),
               std::invalid_argument);
  EXPECT_THROW(
      Solver::build(p.pts, *p.kernel, SolverOptions{}.with_leaf_size(1)),
      std::invalid_argument);
  EXPECT_THROW(
      Solver::build(p.pts, *p.kernel, SolverOptions{}.with_workers(-1)),
      std::invalid_argument);
  EXPECT_THROW(Solver::build(p.pts, *p.kernel, SolverOptions{}.with_eta(0.0)),
               std::invalid_argument);

  // Shape errors throw instead of corrupting memory in Release builds.
  const Solver solver =
      Solver::build(p.pts, *p.kernel, SolverOptions{}.with_tol(1e-8));
  Matrix short_rhs(32, 1);
  EXPECT_THROW((void)solver.solve(short_rhs), std::invalid_argument);
  EXPECT_THROW(solver.solve_in_place(short_rhs), std::invalid_argument);
}

}  // namespace
}  // namespace h2
