#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

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

/// Scratch directory for the spill tier, removed on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    static int counter = 0;
    path = (std::filesystem::temp_directory_path() /
            ("h2-dag-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter++)))
               .string();
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// Factor + solve one fixed system; returns everything the comparisons need.
struct RunResult {
  Matrix x;
  double logabsdet = 0.0;
  double residual = 0.0;  ///< relative ||Ax - b|| against the dense kernel
  UlvStats stats;
};

RunResult run(const Problem& p, const H2Matrix& h, UlvOptions u) {
  const int n = p.tree->n_points();
  const UlvFactorization f(h, u);
  Rng rng(7);
  Matrix b = Matrix::random(n, 1, rng);
  RunResult r;
  r.x = b;
  f.solve(r.x);
  r.logabsdet = f.logabsdet();
  const Matrix a = kernel_dense(*p.kernel, p.tree->points());
  Matrix ax(n, 1);
  gemm(1.0, a, Trans::No, r.x, Trans::No, 0.0, ax);
  r.residual = rel_error_fro(ax, b);
  r.stats = f.stats();
  return r;
}

TEST(UlvDag, NoIntraLevelEliminateEliminateEdges) {
  // The acceptance property of the whole design: the built DAG realizes the
  // paper's "no trailing sub-matrix dependencies" — block-row eliminations
  // of one level are pairwise independent tasks.
  const Problem p = make_problem(512, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-8));
  UlvOptions u;
  u.tol = 1e-8;
  u.record_tasks = true;
  u.n_workers = 2;
  const UlvFactorization f(h, u);
  const DagRecord& dag = f.stats().dag;
  ASSERT_FALSE(dag.empty());
  ASSERT_EQ(f.stats().exec.records.size(), dag.meta.size());

  int n_eliminate = 0, eliminate_out_edges = 0;
  for (TaskId t = 0; t < dag.n_tasks(); ++t) {
    if (dag.meta[t].label != "eliminate") continue;
    ++n_eliminate;
    for (const TaskId s : dag.successors[t]) {
      ++eliminate_out_edges;
      EXPECT_FALSE(dag.meta[s].label == "eliminate" &&
                   dag.meta[s].level == dag.meta[t].level)
          << "trailing dependency: eliminate #" << t << " -> eliminate #" << s
          << " at level " << dag.meta[t].level;
    }
  }
  // Sanity: the property is vacuous without eliminate tasks and their edges.
  EXPECT_GT(n_eliminate, 0);
  EXPECT_GT(eliminate_out_edges, 0);
}

TEST(UlvDag, MergeToFillEdgesLinkAdjacentLevels) {
  // Cross-level overlap hinges on merge -> {fill, basis, project} edges:
  // a parent block row may start its pipeline as soon as ITS four child
  // merges are done, not when the whole child level is.
  const Problem p = make_problem(512, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-8));
  UlvOptions u;
  u.tol = 1e-8;
  u.record_tasks = true;
  u.n_workers = 1;
  const UlvFactorization f(h, u);
  const DagRecord& dag = f.stats().dag;
  ASSERT_FALSE(dag.empty());

  int merge_to_fill = 0, barrier_like = 0;
  for (TaskId t = 0; t < dag.n_tasks(); ++t) {
    if (dag.meta[t].label != "merge") continue;
    for (const TaskId s : dag.successors[t]) {
      if (dag.meta[s].label == "fill") ++merge_to_fill;
      // A bulk-synchronous encoding would route levels through one hub task.
      if (dag.meta[s].label == "barrier") ++barrier_like;
    }
  }
  EXPECT_GT(merge_to_fill, 0);
  EXPECT_EQ(barrier_like, 0);
}

TEST(UlvDag, WorkerCountsAreBitwiseIdentical) {
  // Every task performs the same block operations in the same order, so the
  // factorization is bitwise reproducible across worker counts — the
  // scheduler only changes WHEN a task runs, never what it computes. Each
  // cell reproduces the single-worker free DAG bit for bit (the 1-worker
  // cell is a second run of the baseline itself).
  const Problem p = make_problem(384, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-9));
  UlvOptions ref;
  ref.tol = 1e-9;
  ref.n_workers = 1;
  const RunResult r1 = run(p, h, ref);
  EXPECT_LT(r1.residual, 1e-5);
  for (const int workers : {1, 2, 4, 8}) {
    UlvOptions u = ref;
    u.n_workers = workers;
    const RunResult rk = run(p, h, u);
    EXPECT_EQ(rel_error_fro(rk.x, r1.x), 0.0) << workers << " workers";
    EXPECT_EQ(rk.logabsdet, r1.logabsdet) << workers << " workers";
  }
}

TEST(UlvDag, RecordedRunCarriesCountersAndCriticalPathPriorities) {
  // The recorded execution reports one counter lane per worker, and every
  // task accounted for exactly once.
  const Problem p = make_problem(512, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-8));
  UlvOptions u;
  u.tol = 1e-8;
  u.record_tasks = true;
  u.n_workers = 4;
  const UlvFactorization f(h, u);
  const ExecStats& ex = f.stats().exec;
  ASSERT_EQ(ex.worker_counters.size(), 4u);
  std::uint64_t executed = 0;
  for (const auto& w : ex.worker_counters) executed += w.executed;
  EXPECT_EQ(executed, static_cast<std::uint64_t>(f.stats().dag.n_tasks()));
  // Priorities rode along in the record: the final dense top task sits at
  // the end of every chain, so its bottom level is the minimum.
  const DagRecord& dag = f.stats().dag;
  ASSERT_EQ(dag.priority.size(), dag.meta.size());
  for (TaskId t = 0; t < dag.n_tasks(); ++t) {
    if (dag.meta[t].label != "top") continue;
    for (const double pr : dag.priority) EXPECT_GE(pr, dag.priority[t]);
  }
}

TEST(UlvDag, AgreesWithSequentialBaseline) {
  // The DAG executor must reproduce the Sequential (Sec. II.D) ablation's
  // numbers to within the factorization tolerance: same logabsdet to ~1e-8
  // relative, and a solve residual at the tolerance the bases admit.
  const Problem p = make_problem(384, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-9));
  UlvOptions dag;
  dag.tol = 1e-9;
  dag.n_workers = 4;
  UlvOptions seq = dag;
  seq.mode = UlvMode::Sequential;
  const RunResult rd = run(p, h, dag);
  const RunResult rs = run(p, h, seq);
  EXPECT_LT(rd.residual, 1e-5);
  EXPECT_LT(rs.residual, 1e-5);
  EXPECT_NEAR(rd.logabsdet, rs.logabsdet, 1e-8 * std::abs(rs.logabsdet));
  EXPECT_LE(rel_error_fro(rd.x, rs.x), 1e-4);
}

TEST(UlvDag, BarrierShapeMatchesFreeDagBitwise) {
  // The bulk-synchronous ablation is the free DAG plus barriers: the same
  // tasks run the same block operations, so every cell of {free, barrier}
  // x {1, 4, 8} workers x {fp64, fp32} x {in RAM, spilled} reproduces the
  // single-worker free-DAG run of its precision bit for bit.
  const Problem p = make_problem(256, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-9));
  const TempDir tmp;
  for (const Precision prec : {Precision::F64, Precision::F32}) {
    UlvOptions ref;
    ref.tol = 1e-9;
    ref.precision = prec;
    ref.n_workers = 1;
    const RunResult r1 = run(p, h, ref);
    EXPECT_LT(r1.residual, prec == Precision::F64 ? 1e-5 : 1e-3);
    for (const UlvExecutor shape :
         {UlvExecutor::TaskDag, UlvExecutor::PhaseLoops}) {
      for (const int workers : {1, 4, 8}) {
        for (const bool spill : {false, true}) {
          UlvOptions u = ref;
          u.executor = shape;
          u.n_workers = workers;
          if (spill) {
            u.spill_dir = tmp.path;
            u.spill_budget_bytes = 64 << 10;  // far below the factor
          }
          const RunResult rk = run(p, h, u);
          const std::string cell =
              std::string(prec == Precision::F64 ? "fp64" : "fp32") + " x " +
              (shape == UlvExecutor::TaskDag ? "free" : "barrier") + " x " +
              std::to_string(workers) + " workers" +
              (spill ? " x spilled" : "");
          EXPECT_EQ(rel_error_fro(rk.x, r1.x), 0.0) << cell;
          EXPECT_EQ(rk.logabsdet, r1.logabsdet) << cell;
          if (spill) {
            EXPECT_GT(rk.stats.spilled_blocks, 0u) << cell;
          }
        }
      }
    }
  }
}

TEST(UlvDag, DroppedMassDiagnosticsMatchAcrossShapes) {
  // measure_dropped reads the solved strips full-width, so its DAG tasks
  // need col_solve edges to every dense neighbor; with those in place the
  // accumulated mass matches the barrier shape up to the mutex-ordered
  // floating-point summation.
  const Problem p = make_problem(384, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-8));
  UlvOptions dag;
  dag.tol = 1e-8;
  dag.measure_dropped = true;
  dag.n_workers = 4;
  UlvOptions bulk = dag;
  bulk.executor = UlvExecutor::PhaseLoops;
  const UlvFactorization fd(h, dag);
  const UlvFactorization fb(h, bulk);
  EXPECT_GT(fb.stats().dropped_mass, 0.0);
  EXPECT_NEAR(fd.stats().dropped_mass, fb.stats().dropped_mass,
              1e-10 * fb.stats().dropped_mass);
}

TEST(UlvDag, SequentialShapeChainsEliminationsOnEveryLevel) {
  // The Sec. II.D baseline as a DAG shape: on every level, eliminate(k) ->
  // eliminate(k+1) — the trailing dependency the paper's method removes —
  // and no col_solve/schur tasks (the chain applies their updates).
  const Problem p = make_problem(512, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-8));
  UlvOptions u;
  u.tol = 1e-8;
  u.mode = UlvMode::Sequential;
  u.record_tasks = true;
  u.n_workers = 2;
  const UlvFactorization f(h, u);
  const DagRecord& dag = f.stats().dag;
  ASSERT_FALSE(dag.empty());
  std::vector<std::vector<TaskId>> elim(f.depth() + 1);
  for (TaskId t = 0; t < dag.n_tasks(); ++t) {
    const TaskMeta& m = dag.meta[t];
    EXPECT_NE(m.label, "col_solve");
    EXPECT_NE(m.label, "schur");
    if (m.label != "eliminate") continue;
    ASSERT_GE(m.level, 1);
    auto& row = elim[m.level];
    if (static_cast<int>(row.size()) <= m.owner) row.resize(m.owner + 1, -1);
    row[m.owner] = t;
  }
  for (int level = 1; level <= f.depth(); ++level) {
    ASSERT_EQ(static_cast<int>(elim[level].size()), 1 << level)
        << "level " << level;
    for (std::size_t k = 0; k + 1 < elim[level].size(); ++k) {
      const auto& succ = dag.successors[elim[level][k]];
      EXPECT_NE(std::find(succ.begin(), succ.end(), elim[level][k + 1]),
                succ.end())
          << "no eliminate(" << k << ") -> eliminate(" << k + 1
          << ") edge at level " << level;
    }
  }
  // The skeleton releases sharing a chain tail do not chain onto each other.
  for (TaskId t = 0; t < dag.n_tasks(); ++t) {
    if (dag.meta[t].label != "release") continue;
    for (const TaskId s : dag.successors[t])
      EXPECT_NE(dag.meta[s].label, "release") << "release #" << t;
  }
  // The flat log keeps one "eliminate" row per pivot: what the fill-in
  // ablation bench sums as the Sequential elimination time.
  int elim_rows = 0;
  for (const UlvTaskRecord& r : f.stats().tasks)
    elim_rows += std::string(r.kind) == "eliminate";
  EXPECT_EQ(elim_rows, (1 << (f.depth() + 1)) - 2);
}

TEST(UlvDag, SequentialShapeIsBitwiseAcrossWorkerCounts) {
  // The chain orders every trailing update, so more workers only overlap
  // the basis pipeline around it — factors and solves stay bit-identical.
  const Problem p = make_problem(384, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-9));
  UlvOptions seq;
  seq.tol = 1e-9;
  seq.mode = UlvMode::Sequential;
  seq.n_workers = 1;
  const RunResult r1 = run(p, h, seq);
  seq.n_workers = 4;
  const RunResult r4 = run(p, h, seq);
  EXPECT_EQ(rel_error_fro(r4.x, r1.x), 0.0);
  EXPECT_EQ(r4.logabsdet, r1.logabsdet);
}

TEST(UlvDag, BarrierShapeAddsOnlyBarriers) {
  // The bulk-synchronous shape keeps every task and edge of the free DAG
  // (same ids, allocated first) and adds "barrier" tasks between phases.
  const Problem p = make_problem(512, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-8));
  UlvOptions u;
  u.tol = 1e-8;
  u.record_tasks = true;
  u.n_workers = 2;
  UlvOptions bulk = u;
  bulk.executor = UlvExecutor::PhaseLoops;
  const UlvFactorization ff(h, u);
  const UlvFactorization fb(h, bulk);
  const DagRecord& free_dag = ff.stats().dag;
  const DagRecord& bulk_dag = fb.stats().dag;
  ASSERT_GT(bulk_dag.n_tasks(), free_dag.n_tasks());
  for (TaskId t = 0; t < free_dag.n_tasks(); ++t) {
    ASSERT_EQ(bulk_dag.meta[t].label, free_dag.meta[t].label);
    for (const TaskId v : free_dag.successors[t]) {
      const auto& succ = bulk_dag.successors[t];
      EXPECT_NE(std::find(succ.begin(), succ.end(), v), succ.end());
    }
  }
  for (TaskId t = free_dag.n_tasks(); t < bulk_dag.n_tasks(); ++t)
    EXPECT_EQ(bulk_dag.meta[t].label, "barrier");
  // The flat log is the same view of either shape: no barrier rows.
  EXPECT_EQ(fb.stats().tasks.size(), ff.stats().tasks.size());
}

TEST(UlvDag, FactorizingFromAPoolWorkerDoesNotDeadlock) {
  // A factorization submitted onto the very pool the DAG would execute on
  // must fall back to a temporary pool of the same size — a worker
  // blocking on work queued behind itself would hang forever.
  const Problem p = make_problem(256, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-8));
  ThreadPool pool(2);
  std::atomic<bool> solved{false};
  std::atomic<int> fallback_workers{0};
  pool.submit([&] {
    UlvOptions u;
    u.tol = 1e-8;
    u.record_tasks = true;
    u.pool = &pool;  // deliberately the pool this task runs on
    const UlvFactorization f(h, u);
    solved = std::isfinite(f.logabsdet());
    fallback_workers = f.stats().exec.n_workers;
  });
  pool.wait_idle();
  EXPECT_TRUE(solved.load());
  EXPECT_EQ(fallback_workers.load(), 2);
}

TEST(UlvDag, RecordedDagCoversEveryPhaseAndLevel) {
  const Problem p = make_problem(512, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-8));
  UlvOptions u;
  u.tol = 1e-8;
  u.record_tasks = true;
  u.n_workers = 2;
  const UlvFactorization f(h, u);
  const DagRecord& dag = f.stats().dag;
  ASSERT_FALSE(dag.empty());
  for (const std::string kind :
       {"assemble", "ry", "project_lr", "fill", "basis", "project",
        "eliminate", "col_solve", "schur", "merge", "top"}) {
    int count = 0;
    for (const TaskMeta& m : dag.meta) count += (m.label == kind);
    EXPECT_GT(count, 0) << kind;
  }
  for (int level = 1; level <= f.depth(); ++level) {
    int count = 0;
    for (const TaskMeta& m : dag.meta) count += (m.level == level);
    EXPECT_GT(count, 0) << "level " << level;
  }
  // The trace carries the same metadata per record.
  for (const TaskRecord& r : f.stats().exec.records) {
    ASSERT_GE(r.id, 0);
    EXPECT_EQ(r.label, dag.meta[r.id].label);
    EXPECT_EQ(r.owner, dag.meta[r.id].owner);
    EXPECT_EQ(r.level, dag.meta[r.id].level);
    EXPECT_LE(r.t_start, r.t_end);
  }
}

// ---------------------------------------------------------------------------
// Block lifetime & peak memory (the release tasks wired into the DAG).
// ---------------------------------------------------------------------------

// Sanitizer builds pay a 2-10x slowdown; the memory properties below hold at
// every size (measured ratios ~0.37-0.41 from N=1024 to N=4096), so they run
// scaled down there and at the full regression size everywhere else.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr int kMemN = 1024;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr int kMemN = 1024;
#else
constexpr int kMemN = 4096;
#endif
#else
constexpr int kMemN = 4096;
#endif

/// Factor + solve without the dense-kernel residual (too heavy at kMemN).
struct MemRun {
  Matrix x;
  double logabsdet = 0.0;
  UlvStats stats;
};

MemRun mem_run(const H2Matrix& h, int n, UlvOptions u) {
  const UlvFactorization f(h, u);
  Rng rng(7);
  MemRun r;
  r.x = Matrix::random(n, 1, rng);
  f.solve(r.x);
  r.logabsdet = f.logabsdet();
  r.stats = f.stats();
  return r;
}

TEST(UlvDag, ReleaseTasksBoundPeakFactorizationMemory) {
  // The memory regression gate: with release tasks the factorization's peak
  // tracked block bytes must stay (a) under half of the retain-everything
  // ablation's peak and (b) under the summed task payloads of the two
  // heaviest adjacent levels — the "O(two active levels), not O(whole
  // tree)" bound the release design exists for. Results must be bitwise
  // identical across release x executor x worker count throughout.
  const Problem p =
      make_problem(kMemN, 128, Geometry::Sphere, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-6));

  UlvOptions retain;
  retain.tol = 1e-6;
  retain.n_workers = 1;
  retain.release_blocks = false;
  const MemRun base = mem_run(h, kMemN, retain);
  // Retaining everything means the high-water mark IS the end state.
  EXPECT_EQ(base.stats.peak_block_bytes, base.stats.final_block_bytes);
  ASSERT_GT(base.stats.peak_block_bytes, 0u);

  DagRecord recorded;  // from the 1-worker TaskDag release run below
  std::uint64_t recorded_peak = 0;
  std::uint64_t released_final = 0;
  for (const UlvExecutor ex : {UlvExecutor::TaskDag, UlvExecutor::PhaseLoops}) {
    for (const int workers : {1, 4}) {
      UlvOptions u = retain;
      u.release_blocks = true;
      u.executor = ex;
      u.n_workers = workers;
      u.record_tasks = (ex == UlvExecutor::TaskDag && workers == 1);
      const MemRun r = mem_run(h, kMemN, u);
      const std::string cell =
          std::string(ex == UlvExecutor::TaskDag ? "TaskDag" : "PhaseLoops") +
          " x " + std::to_string(workers) + " workers";
      // Releases only ever free dead blocks: bitwise identical results.
      EXPECT_EQ(rel_error_fro(r.x, base.x), 0.0) << cell;
      EXPECT_EQ(r.logabsdet, base.logabsdet) << cell;
      // The 50% acceptance gate (measured ~0.37-0.41 across sizes).
      EXPECT_LE(r.stats.peak_block_bytes, base.stats.peak_block_bytes / 2)
          << cell;
      // What survives is exactly the persistent factor, identical across
      // shapes and worker counts (same bitwise blocks), and the peak
      // hugs it — releases fire as soon as the last consumer retires.
      EXPECT_GE(r.stats.peak_block_bytes, r.stats.final_block_bytes) << cell;
      if (released_final == 0)
        released_final = r.stats.final_block_bytes;
      else
        EXPECT_EQ(r.stats.final_block_bytes, released_final) << cell;
      if (u.record_tasks) {
        recorded = r.stats.dag;
        recorded_peak = r.stats.peak_block_bytes;
      }
    }
  }
  // The retained ablation holds the factor PLUS the whole workspace.
  EXPECT_LT(released_final, base.stats.final_block_bytes);

  // Adjacent-levels bound, from the recorded per-task payloads: peak tracked
  // bytes <= sum of the two heaviest adjacent levels' task output bytes
  // (measured ~0.4x of it; C = 1 leaves >2x headroom without letting an
  // O(whole tree) regression through).
  ASSERT_FALSE(recorded.empty());
  ASSERT_FALSE(recorded.out_bytes.empty());
  std::vector<double> level_bytes;
  for (int t = 0; t < recorded.n_tasks(); ++t) {
    const int l = recorded.meta[t].level;
    if (l < 0) continue;
    if (l >= static_cast<int>(level_bytes.size()))
      level_bytes.resize(l + 1, 0.0);
    level_bytes[l] += recorded.out_bytes[t];
  }
  ASSERT_GE(level_bytes.size(), 2u);
  double heaviest_adjacent = 0.0;
  for (std::size_t l = 0; l + 1 < level_bytes.size(); ++l)
    heaviest_adjacent =
        std::max(heaviest_adjacent, level_bytes[l] + level_bytes[l + 1]);
  ASSERT_GT(heaviest_adjacent, 0.0);
  ASSERT_GT(recorded_peak, 0u);
  EXPECT_LE(static_cast<double>(recorded_peak), heaviest_adjacent);
}

TEST(UlvDag, RecordedReleaseTasksHaveConsumerEdgesAndNoPayload) {
  // Structure of the recorded DAG with releases: every per-resource release
  // depends on its producer AND each consumer (the dependency counter is the
  // block's reference count), carries no payload, and is absent entirely
  // when release_blocks is off.
  const Problem p = make_problem(512, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-8));
  UlvOptions u;
  u.tol = 1e-8;
  u.record_tasks = true;
  u.n_workers = 2;
  const UlvFactorization f(h, u);
  const DagRecord& dag = f.stats().dag;
  ASSERT_FALSE(dag.empty());

  std::vector<int> preds(dag.n_tasks(), 0);
  for (TaskId t = 0; t < dag.n_tasks(); ++t)
    for (const TaskId s : dag.successors[t]) ++preds[s];

  int n_release = 0, n_release_level = 0;
  for (TaskId t = 0; t < dag.n_tasks(); ++t) {
    const std::string& label = dag.meta[t].label;
    if (label == "release") {
      ++n_release;
      // Producer + at least one consumer: ry factors, fill spaces and
      // skeleton blocks all have real readers.
      EXPECT_GE(preds[t], 2) << "release #" << t;
    } else if (label == "release_level") {
      ++n_release_level;
      EXPECT_GE(preds[t], 1) << "release_level #" << t;
    } else {
      continue;
    }
    EXPECT_EQ(dag.out_bytes[t], 0.0) << "release tasks move no data";
    EXPECT_GE(dag.meta[t].level, 1);
  }
  EXPECT_GT(n_release, 0);
  EXPECT_EQ(n_release_level, f.depth());

  // Release tasks outrank every compute task under the critical-path
  // policy: a ready release (microseconds, frees megabytes) must not queue
  // behind a level's compute.
  ASSERT_FALSE(dag.priority.empty());
  double max_compute = 0.0, min_release = 0.0;
  bool first_release = true;
  for (TaskId t = 0; t < dag.n_tasks(); ++t) {
    if (dag.meta[t].label.rfind("release", 0) == 0) {
      min_release = first_release ? dag.priority[t]
                                  : std::min(min_release, dag.priority[t]);
      first_release = false;
    } else {
      max_compute = std::max(max_compute, dag.priority[t]);
    }
  }
  EXPECT_GT(min_release, max_compute);

  // The retain-everything ablation records a release-free DAG.
  UlvOptions keep = u;
  keep.release_blocks = false;
  const UlvFactorization fk(h, keep);
  for (const TaskMeta& m : fk.stats().dag.meta)
    EXPECT_NE(m.label.rfind("release", 0), 0u) << m.label;
}

TEST(UlvDag, FreeTimePayloadCaptureMatchesRetainEverything) {
  // out_bytes used to be computed post-execution over retained state; they
  // are now captured inside each task the moment its outputs exist. With
  // release_blocks off nothing is ever freed, so the free-time values must
  // equal what the post-hoc sweep would have read — and the release run's
  // compute prefix (task ids are allocated before any release task) must
  // carry exactly the same payloads, or releasing corrupted the capture.
  const Problem p = make_problem(384, 32, Geometry::Cube, KernelKind::Laplace);
  const H2Matrix h(*p.tree, *p.kernel, strong_opts(1e-8));
  UlvOptions rel;
  rel.tol = 1e-8;
  rel.record_tasks = true;
  rel.n_workers = 4;
  UlvOptions keep = rel;
  keep.release_blocks = false;
  const UlvFactorization fr(h, rel);
  const UlvFactorization fk(h, keep);
  const DagRecord& dr = fr.stats().dag;
  const DagRecord& dk = fk.stats().dag;
  ASSERT_FALSE(dr.out_bytes.empty());
  ASSERT_FALSE(dk.out_bytes.empty());
  ASSERT_GT(dr.n_tasks(), dk.n_tasks());  // the release tasks
  double total = 0.0;
  for (TaskId t = 0; t < dk.n_tasks(); ++t) {
    ASSERT_EQ(dr.meta[t].label, dk.meta[t].label);
    EXPECT_EQ(dr.out_bytes[t], dk.out_bytes[t])
        << dk.meta[t].label << " #" << t;
    total += dk.out_bytes[t];
  }
  EXPECT_GT(total, 0.0);
}

}  // namespace
}  // namespace h2
