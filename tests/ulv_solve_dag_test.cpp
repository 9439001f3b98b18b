#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "test_helpers.hpp"

namespace h2 {
namespace {

using testing_support::Geometry;
using testing_support::KernelKind;
using testing_support::make_problem;
using testing_support::Problem;

H2BuildOptions strong_opts(double tol) {
  H2BuildOptions o;
  o.admissibility = {Admissibility::Strong, 0.75};
  o.tol = tol * 1e-2;
  return o;
}

Matrix random_rhs(int n, int nrhs) {
  Rng rng(7);
  return Matrix::random(n, nrhs, rng);
}

TEST(UlvSolveDag, MultiRhsBitwiseAcrossShapeMatrix) {
  // Every cell of {barrier, free} shape x {1, 4, 8} workers must reproduce
  // the single-worker barrier-shape solve BIT FOR BIT, for one and many
  // right-hand sides — shape and worker count change when a task runs,
  // never what it computes.
  const Problem p = make_problem(384, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-9));
  const int n = p.tree->n_points();
  for (const int nrhs : {1, 4, 33}) {
    const Matrix b = random_rhs(n, nrhs);
    UlvOptions ref;
    ref.tol = 1e-9;
    ref.n_workers = 1;
    ref.executor = UlvExecutor::PhaseLoops;
    const UlvFactorization f_ref(h, ref);
    Matrix x_ref = b;
    f_ref.solve(x_ref);

    // Sanity: the reference solves the system at all.
    const Matrix a = kernel_dense(*p.kernel, p.tree->points());
    Matrix ax(n, nrhs);
    gemm(1.0, a, Trans::No, x_ref, Trans::No, 0.0, ax);
    EXPECT_LT(rel_error_fro(ax, b), 1e-5) << "nrhs " << nrhs;

    for (const UlvExecutor shape :
         {UlvExecutor::PhaseLoops, UlvExecutor::TaskDag}) {
      for (const int workers : {1, 4, 8}) {
        UlvOptions u = ref;
        u.executor = shape;
        u.n_workers = workers;
        const UlvFactorization f(h, u);
        Matrix x = b;
        f.solve(x);
        const std::string cell =
            std::string(shape == UlvExecutor::TaskDag ? "free" : "barrier") +
            " x " + std::to_string(workers) + " workers, nrhs " +
            std::to_string(nrhs);
        EXPECT_EQ(rel_error_fro(x, x_ref), 0.0) << cell;
      }
    }
  }
}

TEST(UlvSolveDag, RecordedPlanMirrorsForwardSweepReversed) {
  // The plan is recorded once at factorization time: a forward half
  // (fwd_xform -> fwd_subst -> fwd_down -> fwd_merge, rooted at "top") and
  // a backward half whose tasks are the forward tasks' twins and whose
  // edges are EXACTLY the forward edges reversed.
  const Problem p = make_problem(512, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-8));
  UlvOptions u;
  u.tol = 1e-8;
  const UlvFactorization f(h, u);
  const DagRecord& dag = f.solve_dag();
  ASSERT_FALSE(dag.empty());

  // Locate "top": forward tasks are [0, top), backward twins are
  // [top + 1, 2 top + 1) with bwd(t) = top + 1 + t.
  TaskId top = -1;
  for (TaskId t = 0; t < dag.n_tasks(); ++t)
    if (dag.meta[t].label == "top") top = t;
  ASSERT_GE(top, 0);
  ASSERT_EQ(dag.n_tasks(), 2 * top + 1);

  auto twin_label = [](const std::string& l) -> std::string {
    if (l == "fwd_xform") return "bwd_combine";
    if (l == "fwd_subst") return "bwd_y";
    if (l == "fwd_down") return "bwd_xs";
    if (l == "fwd_merge") return "bwd_split";
    return "?";
  };
  auto has_edge = [&dag](TaskId u_, TaskId v_) {
    for (const TaskId s : dag.successors[u_])
      if (s == v_) return true;
    return false;
  };
  int checked = 0;
  for (TaskId t = 0; t < top; ++t) {
    const TaskMeta& m = dag.meta[t];
    const TaskMeta& b = dag.meta[top + 1 + t];
    EXPECT_EQ(b.label, twin_label(m.label)) << "task " << t;
    EXPECT_EQ(b.owner, m.owner);
    EXPECT_EQ(b.level, m.level);
    for (const TaskId v : dag.successors[t]) {
      if (v == top) {
        EXPECT_TRUE(has_edge(top, top + 1 + t)) << "top turning point";
      } else {
        EXPECT_TRUE(has_edge(top + 1 + v, top + 1 + t))
            << "forward edge " << t << "->" << v << " not reversed";
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
  // No backward task leaks an edge into the forward half, and the backward
  // half carries exactly as many edges as the forward half.
  int fwd_edges = 0, bwd_edges = 0, turning_edges = 0;
  for (TaskId t = 0; t < dag.n_tasks(); ++t)
    for (const TaskId v : dag.successors[t]) {
      if (t == top) {
        ++turning_edges;
        EXPECT_GT(v, top);
      } else if (t < top) {
        ++fwd_edges;
        EXPECT_LE(v, top);
      } else {
        ++bwd_edges;
        EXPECT_GT(v, top);
      }
    }
  EXPECT_EQ(turning_edges, 1);  // the reversed fwd_merge -> top edge
  EXPECT_EQ(fwd_edges, bwd_edges + 1);  // fwd_merge -> top reverses to it

  // Critical-path priorities rode along, and the forward half dominates the
  // backward half through the "top" turning point.
  ASSERT_EQ(static_cast<int>(dag.priority.size()), dag.n_tasks());
  for (TaskId t = 0; t < top; ++t)
    EXPECT_GT(dag.priority[t], dag.priority[top + 1 + t])
        << "forward task " << t << " vs its backward twin";
}

TEST(UlvSolveDag, EveryModeAndShapeRecordsAPlan) {
  // One solve executor: the plan exists for every mode and shape. The
  // barrier shape's plan is the free plan (same ids, same edges) plus
  // "barrier" tasks between consecutive (level, phase) groups.
  const Problem p = make_problem(256, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-8));
  UlvOptions u;
  u.tol = 1e-8;
  UlvOptions seq = u;
  seq.mode = UlvMode::Sequential;
  UlvOptions bulk = u;
  bulk.executor = UlvExecutor::PhaseLoops;
  const UlvFactorization ff(h, u);
  const UlvFactorization fs(h, seq);
  const UlvFactorization fb(h, bulk);
  const DagRecord& free_plan = ff.solve_dag();
  ASSERT_FALSE(free_plan.empty());
  EXPECT_EQ(fs.solve_dag().n_tasks(), free_plan.n_tasks());
  const DagRecord& bulk_plan = fb.solve_dag();
  ASSERT_GT(bulk_plan.n_tasks(), free_plan.n_tasks());
  for (TaskId t = 0; t < free_plan.n_tasks(); ++t) {
    ASSERT_EQ(bulk_plan.meta[t].label, free_plan.meta[t].label);
    for (const TaskId v : free_plan.successors[t]) {
      const auto& succ = bulk_plan.successors[t];
      EXPECT_NE(std::find(succ.begin(), succ.end(), v), succ.end());
    }
  }
  for (TaskId t = free_plan.n_tasks(); t < bulk_plan.n_tasks(); ++t)
    EXPECT_EQ(bulk_plan.meta[t].label, "barrier");
}

TEST(UlvSolveDag, EveryPlanCarriesOnePriorityPerTask) {
  // The solve plan always carries its critical-path ranks — one per task,
  // under either shape and in either precision — so every solve runs in
  // bottom-level order and the spill step tasks can outrank all of them.
  const Problem p = make_problem(256, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-8));
  for (const UlvExecutor shape :
       {UlvExecutor::TaskDag, UlvExecutor::PhaseLoops}) {
    for (const Precision prec : {Precision::F64, Precision::F32}) {
      UlvOptions u;
      u.tol = 1e-8;
      u.executor = shape;
      u.precision = prec;
      const UlvFactorization f(h, u);
      const DagRecord& plan = f.solve_dag();
      ASSERT_FALSE(plan.empty());
      ASSERT_EQ(plan.priority.size(), plan.meta.size());
      // Bottom levels count the task itself: a sink ranks 1, anything with
      // successors strictly above each of them.
      for (TaskId t = 0; t < plan.n_tasks(); ++t) {
        EXPECT_GE(plan.priority[t], 1.0);
        for (const TaskId s : plan.successors[t])
          EXPECT_GT(plan.priority[t], plan.priority[s]);
      }
    }
  }
}

TEST(UlvSolveDag, DagSolveSurfacesExecStatsOfTheEnginePool) {
  // The most recent DAG solve's trace is readable through
  // last_solve_stats(). With n_workers = 2 the engine owns ONE 2-worker
  // pool for the factorization and every solve, so both report 2 lanes;
  // each lane's executed counter equals the records it ran, and together
  // they cover every task exactly once. (That an idle lane really steals
  // is pinned deterministically by ThreadPool.StarvedWorkerActuallySteals.)
  const Problem p = make_problem(512, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-8));
  UlvOptions u;
  u.tol = 1e-8;
  u.n_workers = 2;
  u.record_tasks = true;
  const UlvFactorization f(h, u);
  EXPECT_EQ(f.stats().exec.n_workers, 2);
  EXPECT_EQ(f.stats().exec.worker_counters.size(), 2u);
  EXPECT_TRUE(f.last_solve_stats().records.empty()) << "stats before any solve";

  const int n = p.tree->n_points();
  const Matrix b = random_rhs(n, 3);
  const int n_tasks = f.solve_dag().n_tasks();
  ASSERT_GT(n_tasks, 0);

  // Two solves on the same pool: the counters are per-solve deltas.
  for (int solve = 0; solve < 2; ++solve) {
    Matrix x = b;
    f.solve(x);
    const ExecStats st = f.last_solve_stats();
    ASSERT_EQ(static_cast<int>(st.records.size()), n_tasks);
    EXPECT_EQ(st.n_workers, 2);
    EXPECT_GT(st.wall_seconds, 0.0);
    ASSERT_EQ(st.worker_counters.size(), 2u);
    std::vector<std::uint64_t> ran(2, 0);
    for (const TaskRecord& r : st.records) {
      ASSERT_GE(r.worker, 0);
      ASSERT_LT(r.worker, 2);
      ++ran[r.worker];
    }
    for (int w = 0; w < 2; ++w)
      EXPECT_EQ(st.worker_counters[w].executed, ran[w]) << "lane " << w;
    EXPECT_EQ(ran[0] + ran[1], static_cast<std::uint64_t>(n_tasks));
  }

  // An inline solve (run on a worker of its own pool) reports nothing —
  // the surface is exact about which solves produced a trace.
  ThreadPool pool(1);
  UlvOptions on_pool = u;
  on_pool.pool = &pool;
  const UlvFactorization fp(h, on_pool);
  Matrix x = b;
  pool.submit([&] { fp.solve(x); });
  pool.wait_idle();
  EXPECT_TRUE(fp.last_solve_stats().records.empty());
  EXPECT_EQ(fp.solve_stats_generation(), 0u);
}

TEST(UlvSolveDag, SolveTraceCsvHookWritesEveryTask) {
  const Problem p = make_problem(384, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-8));
  UlvOptions u;
  u.tol = 1e-8;
  u.n_workers = 1;
  const UlvFactorization f(h, u);
  const char* path = "ulv_solve_trace_test.csv";
  ::setenv("H2_SOLVE_TRACE", path, 1);
  Matrix x = random_rhs(p.tree->n_points(), 2);
  f.solve(x);
  ::unsetenv("H2_SOLVE_TRACE");

  std::ifstream csv(path);
  ASSERT_TRUE(csv.good()) << "H2_SOLVE_TRACE produced no file";
  std::string line;
  int data_lines = 0;
  bool header = false, fwd = false, bwd = false;
  while (std::getline(csv, line)) {
    if (line.rfind('#', 0) == 0) continue;  // per-worker counter comments
    if (line.rfind("task,label,owner,level,worker", 0) == 0) {
      header = true;
      continue;
    }
    ++data_lines;
    if (line.find("fwd_xform") != std::string::npos) fwd = true;
    if (line.find("bwd_combine") != std::string::npos) bwd = true;
  }
  EXPECT_TRUE(header);
  EXPECT_TRUE(fwd);
  EXPECT_TRUE(bwd);
  EXPECT_EQ(data_lines, f.solve_dag().n_tasks());
  std::remove(path);
}

TEST(UlvSolveDag, SolveFromAPoolWorkerDoesNotDeadlock) {
  // A solve submitted onto the very pool the DAG would execute on runs the
  // same graph inline, bitwise identical — whole solves pipeline across
  // workers instead of blocking on work queued behind themselves.
  const Problem p = make_problem(256, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-8));
  ThreadPool pool(2);
  UlvOptions u;
  u.tol = 1e-8;
  u.pool = &pool;
  const UlvFactorization f(h, u);
  const int n = p.tree->n_points();
  const Matrix b = random_rhs(n, 2);
  Matrix x_direct = b;
  f.solve(x_direct);

  Matrix x_worker = b;
  std::atomic<bool> done{false};
  pool.submit([&] {
    f.solve(x_worker);
    done = true;
  });
  pool.wait_idle();
  ASSERT_TRUE(done.load());
  EXPECT_EQ(rel_error_fro(x_worker, x_direct), 0.0);
}

TEST(UlvSolveDag, ConcurrentSolvesShareOneFactorization) {
  // The solve-reuse story: one factorization, many concurrent solves. Each
  // solve owns its scratch, so racing solves must agree bitwise with the
  // serial answers.
  const Problem p = make_problem(384, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-8));
  UlvOptions u;
  u.tol = 1e-8;
  const UlvFactorization f(h, u);
  const int n = p.tree->n_points();
  constexpr int kBatch = 6;
  std::vector<Matrix> rhs, serial;
  for (int i = 0; i < kBatch; ++i) {
    Rng rng(100 + i);
    rhs.push_back(Matrix::random(n, 3, rng));
    serial.push_back(rhs.back());
    f.solve(serial.back());
  }
  ThreadPool pool(4);
  std::vector<Matrix> parallel = rhs;
  for (int i = 0; i < kBatch; ++i)
    pool.submit([&f, &parallel, i] { f.solve(parallel[i]); });
  pool.wait_idle();
  for (int i = 0; i < kBatch; ++i)
    EXPECT_EQ(rel_error_fro(parallel[i], serial[i]), 0.0) << "rhs " << i;
}

TEST(UlvSolveDag, ValidateRejectsNonsense) {
  const Problem p = make_problem(256, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-8));
  UlvOptions bad;
  bad.tol = 0.0;
  EXPECT_THROW(UlvFactorization(h, bad), std::invalid_argument);
  bad = UlvOptions{};
  bad.tol = -1e-8;
  EXPECT_THROW(UlvFactorization(h, bad), std::invalid_argument);
  bad = UlvOptions{};
  bad.fill_tol_factor = 0.0;
  EXPECT_THROW(UlvFactorization(h, bad), std::invalid_argument);
  bad = UlvOptions{};
  bad.n_workers = -2;
  EXPECT_THROW(UlvFactorization(h, bad), std::invalid_argument);
}

}  // namespace
}  // namespace h2
