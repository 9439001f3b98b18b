#pragma once

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/refine.hpp"
#include "core/ulv_options.hpp"
#include "storage/spill_store.hpp"
#include "geometry/cloud.hpp"
#include "geometry/cluster_tree.hpp"
#include "kernels/kernel.hpp"
#include "linalg/matrix.hpp"

/// \namespace h2
/// \brief A scalable linear-time dense direct solver: the H2-ULV
/// factorization without trailing sub-matrix dependencies (SC 2022), its
/// task-DAG runtime, baseline structures (HSS/BLR/HODLR), and the
/// distributed scheduling simulator behind the paper's scaling figures.
/// Start at h2::Solver; docs/ARCHITECTURE.md maps the layers.
namespace h2 {

class ThreadPool;

/// Environment default of SolverOptions::spill_dir: $H2_SPILL_DIR, else ""
/// (spilling off).
[[nodiscard]] std::string solver_default_spill_dir();
/// Environment default of SolverOptions::spill_budget_mb: $H2_SPILL_MB,
/// else 256.
[[nodiscard]] double solver_default_spill_mb();
/// Environment default of SolverOptions::spill_threads: $H2_SPILL_THREADS,
/// else 2.
[[nodiscard]] int solver_default_spill_threads();
/// Environment default of SolverOptions::precision: $H2_PRECISION
/// ("f32"/"fp32"/"single" selects Precision::F32; anything else, or unset,
/// Precision::F64).
[[nodiscard]] Precision solver_default_precision();

/// Which rank-structured representation (and hence which direct solver)
/// backs an h2::Solver — the paper's Table I families over one geometry.
enum class SolverStructure {
  /// Hierarchical, strong admissibility, shared nested bases, ULV
  /// factorization without trailing sub-matrix dependencies (the paper's
  /// method, and the default — bounded ranks in 3-D).
  H2,
  /// Hierarchical, weak admissibility, shared bases, same ULV engine
  /// (ranks grow with N in 3-D; kept as the ablation family).
  HSS,
  /// Flat block low-rank Cholesky with trailing updates (the LORAPO-class
  /// baseline). Requires an SPD kernel matrix.
  BLR,
  /// Hierarchical, independent bases, recursive Sherman-Morrison-Woodbury.
  HODLR,
};

/// Everything Solver::build needs, in one builder-style object: geometry
/// partitioning, representation construction (H2BuildOptions), and
/// factorization/solve execution (UlvOptions) — so callers configure one
/// surface instead of wiring three option structs through five steps. The
/// with_* setters chain:
///
///   auto s = Solver::build(points, kernel,
///                          SolverOptions{}.with_tol(1e-8).with_leaf_size(64));
struct SolverOptions {
  /// Which rank-structured family backs the solver (Table I; default H2).
  SolverStructure structure = SolverStructure::H2;

  // ---- Geometry / clustering.
  /// Maximum points per cluster-tree leaf.
  int leaf_size = 128;
  /// How points are split into clusters (recursive 2-means or Morton).
  Partitioner partitioner = Partitioner::KMeans;
  /// Seed of the (deterministic) clustering Rng.
  std::uint64_t seed = 42;

  // ---- Representation construction.
  /// Strong-admissibility separation parameter (H2; HSS/HODLR are weak).
  double eta = 0.75;
  /// Relative solve tolerance; the shared-basis truncation of the ULV
  /// factorization runs at this, construction (ACA) at build_tol_factor
  /// of it.
  double tol = 1e-8;
  /// Construction (ACA) tolerance as a fraction of `tol`.
  double build_tol_factor = 1e-2;
  int max_rank = -1;  ///< optional hard rank cap (-1: none)

  // ---- Execution (see UlvOptions for the full story).
  /// Parallel (the paper's dependency-free elimination) or the Sequential
  /// trailing-update baseline.
  UlvMode mode = UlvMode::Parallel;
  /// DAG shape of the factorization and the solve: the free DAG (default)
  /// or the bulk-synchronous ablation (a barrier per level and phase).
  UlvExecutor executor = UlvExecutor::TaskDag;
  /// 0: the process-wide pool; > 0: the factorization owns ONE private
  /// pool of that size (H2/HSS), shared by the factorization and every
  /// solve for the Solver's lifetime.
  /// BLR and HODLR drive their own workers: BLR sizes them from this (0:
  /// hardware), HODLR is serial.
  int n_workers = 0;
  /// Explicit pool (wins over n_workers); also the pool solve_async
  /// pipelines batches on. BLR borrows only its SIZE as the worker bound.
  ThreadPool* pool = nullptr;
  /// Record per-task timings + the executed DAG (feeds UlvDistModel).
  bool record_tasks = false;
  /// Fill-in directions are truncated at fill_tol_factor * tol.
  double fill_tol_factor = 0.01;
  /// The paper's key idea: fold pre-computed fill-in directions into the
  /// shared bases (turn off only for the ablation).
  bool fillin_augmentation = true;
  /// Make each solution column's bits independent of nrhs (ULV backends):
  /// solving k right-hand sides as one n x k block is then bitwise equal to
  /// k separate solve() calls. The batching contract h2::Server coalesces
  /// under; see UlvOptions::width_stable_solve for mechanism and cost.
  bool width_stable_solve = false;

  // ---- Mixed precision (docs/ARCHITECTURE.md "Precision").
  /// Element precision of the stored factorization ($H2_PRECISION, f64).
  /// Precision::F32 (H2/HSS only; validate() rejects it for BLR/HODLR)
  /// runs the native fp32 ULV engine at half the factor bytes, and every
  /// solve then finishes with fp64 iterative refinement against the
  /// retained fp64 operator — so solutions come back at fp64-grade
  /// residuals from an fp32-sized factor. Inspect the outcome with
  /// Solver::last_refine().
  Precision precision = solver_default_precision();
  /// Relative residual the refinement loop drives mixed-precision solves
  /// to (||b - A x||_F / ||b||_F). 0 (default): refine to `tol`, the
  /// factorization's own truncation accuracy. A target the factorization
  /// cannot reach reports RefineResult::converged = false (never loops
  /// past max_refine_iters). Ignored under Precision::F64.
  double refine_tol = 0.0;
  /// Iteration cap of the refinement loop (mixed-precision solves).
  int max_refine_iters = 20;

  // ---- Out-of-core factor store (src/storage; knobs in docs/TUNING.md).
  /// Existing writable directory for the spill tier; empty (the default
  /// unless $H2_SPILL_DIR is set) keeps the whole factor resident. When
  /// set, factor blocks spill to checksummed files at their release points
  /// and are prefetched ahead of each solve sweep — decoupling solvable N
  /// from RAM while keeping results bitwise identical to the in-RAM run
  /// (ULV structures only; BLR/HODLR ignore it).
  std::string spill_dir = solver_default_spill_dir();
  /// Resident budget for spilled factor blocks in MiB ($H2_SPILL_MB, 256).
  double spill_budget_mb = solver_default_spill_mb();
  /// Background spill-writer threads ($H2_SPILL_THREADS, 2).
  int spill_threads = solver_default_spill_threads();

  SolverOptions& with_structure(SolverStructure s) { structure = s; return *this; }  ///< chain-set structure
  SolverOptions& with_leaf_size(int v) { leaf_size = v; return *this; }  ///< chain-set leaf_size
  SolverOptions& with_partitioner(Partitioner p) { partitioner = p; return *this; }  ///< chain-set partitioner
  SolverOptions& with_seed(std::uint64_t v) { seed = v; return *this; }  ///< chain-set seed
  SolverOptions& with_eta(double v) { eta = v; return *this; }  ///< chain-set eta
  SolverOptions& with_tol(double v) { tol = v; return *this; }  ///< chain-set tol
  SolverOptions& with_build_tol_factor(double v) { build_tol_factor = v; return *this; }  ///< chain-set build_tol_factor
  SolverOptions& with_max_rank(int v) { max_rank = v; return *this; }  ///< chain-set max_rank
  SolverOptions& with_mode(UlvMode v) { mode = v; return *this; }  ///< chain-set mode
  SolverOptions& with_executor(UlvExecutor v) { executor = v; return *this; }  ///< chain-set executor
  SolverOptions& with_workers(int v) { n_workers = v; return *this; }  ///< chain-set n_workers
  SolverOptions& with_pool(ThreadPool* p) { pool = p; return *this; }  ///< chain-set pool
  SolverOptions& with_record_tasks(bool v) { record_tasks = v; return *this; }  ///< chain-set record_tasks
  SolverOptions& with_width_stable_solve(bool v) { width_stable_solve = v; return *this; }  ///< chain-set width_stable_solve
  SolverOptions& with_precision(Precision p) { precision = p; return *this; }  ///< chain-set precision
  SolverOptions& with_refine_tol(double v) { refine_tol = v; return *this; }  ///< chain-set refine_tol
  SolverOptions& with_max_refine_iters(int v) { max_refine_iters = v; return *this; }  ///< chain-set max_refine_iters
  SolverOptions& with_spill_dir(std::string d) { spill_dir = std::move(d); return *this; }  ///< chain-set spill_dir
  SolverOptions& with_spill_budget_mb(double v) { spill_budget_mb = v; return *this; }  ///< chain-set spill_budget_mb
  SolverOptions& with_spill_threads(int v) { spill_threads = v; return *this; }  ///< chain-set spill_threads

  /// The UlvOptions this surface consolidates (H2/HSS structures).
  [[nodiscard]] UlvOptions ulv_options() const;
  /// Throws std::invalid_argument on nonsensical inputs (delegates the
  /// execution knobs to UlvOptions::validate), including Precision::F32 for
  /// the BLR/HODLR structures, which have no fp32 factorization.
  void validate() const;
};

/// Future-like handle to an in-flight solve_async: independent batches
/// pipeline on the shared ThreadPool while the caller keeps working. The
/// handle shares ownership of the solver's factorization, so it stays valid
/// even if the Solver goes out of scope first.
class SolveHandle {
 public:
  /// What an async solve delivers: the solution plus the execution trace
  /// observed when it completed (see SolveHandle::stats).
  struct Outcome {
    Matrix x;         ///< the solution, point ordering
    ExecStats stats;  ///< backend solve-DAG trace snapshot (may be empty)
  };

  /// Block until the solution (point ordering) is ready and take it.
  /// Rethrows any exception the solve raised. Valid once.
  [[nodiscard]] Matrix get();
  /// Non-blocking readiness probe (true once taken by get()).
  [[nodiscard]] bool ready() const;
  /// Block until the solve finishes (no-op once taken by get()).
  void wait() const;
  /// Snapshot of the ULV backend's DAG-solve ExecStats taken when this
  /// solve completed, valid after get(). Empty when no NEW DAG trace was
  /// produced during this solve: non-ULV structures, or a solve that
  /// pipelined inline on a pool worker (whole-solve pipelining runs the
  /// graph on that worker's thread, untraced) — a stale trace from an
  /// earlier solve is never presented as this one's.
  /// Diagnostic only: under CONCURRENT solves the snapshot may describe a
  /// sibling solve that finished in the same window.
  [[nodiscard]] const ExecStats& stats() const { return stats_; }

 private:
  friend class Solver;
  SolveHandle(std::future<Outcome> f, std::shared_ptr<const void> keep_alive)
      : future_(std::move(f)), keep_alive_(std::move(keep_alive)) {}

  std::future<Outcome> future_;
  ExecStats stats_;                         ///< filled by get()
  std::shared_ptr<const void> keep_alive_;  ///< the Solver's Impl
};

/// The one-object entry point to the library: owns the whole
/// points -> ClusterTree -> representation -> factorization pipeline behind
/// a redesigned solve surface.
///
///   Solver solver = Solver::build(points, kernel, opt);
///   Matrix x = solver.solve(b);   // b, x in the caller's POINT ordering
///
/// Ordering contract: solve/solve_batch/solve_async take and return
/// right-hand sides in the caller's original point ordering (row i of b
/// corresponds to points[i]); the tree permutation is handled internally
/// via ClusterTree::to_tree_order/from_tree_order. solve_in_place is the
/// zero-copy path and works in TREE ordering (the ordering of
/// tree().points()).
///
/// A Solver is cheap to copy (shared immutable factorization) and safe to
/// solve from many threads concurrently — the direct-solver reuse story:
/// factorize once, serve many right-hand sides.
class Solver {
 public:
  /// Build the full pipeline: cluster `points`, assemble the structure's
  /// representation of kernel(x_i, x_j), factorize. The kernel is only used
  /// during construction and need not outlive the call.
  static Solver build(const PointCloud& points, const Kernel& kernel,
                      SolverOptions opt = {});

  /// Out-of-place solve A x = b in POINT ordering; b is n x nrhs.
  [[nodiscard]] Matrix solve(ConstMatrixView b) const;

  /// Zero-copy in-place solve; b is n x nrhs in TREE ordering.
  void solve_in_place(MatrixView b) const;

  /// Solve many independent right-hand-side batches (each n x nrhs_i, point
  /// ordering). The batches pipeline concurrently on the pool; results come
  /// back in input order and match serial solve() calls bitwise.
  [[nodiscard]] std::vector<Matrix> solve_batch(
      const std::vector<Matrix>& rhs) const;

  /// Asynchronous solve (point ordering): enqueue on the pool and return
  /// immediately. Independent solves overlap; each runs its solve graph
  /// inline on its worker, so a batch pipelines whole solves across the
  /// pool.
  [[nodiscard]] SolveHandle solve_async(Matrix b) const;

  /// log|det A| from the backend's triangular factors.
  [[nodiscard]] double logabsdet() const;

  /// ExecStats of the most recent DAG-executed solve on the ULV backend
  /// (UlvFactorization::last_solve_stats): worker lanes, per-task spans,
  /// executed/stolen counters. Empty for BLR/HODLR backends, before any
  /// solve, or when every solve ran inline on a pool worker. Set
  /// H2_SOLVE_TRACE to a path to also dump each DAG solve's trace CSV.
  [[nodiscard]] ExecStats last_solve_stats() const;

  /// Typed status of the most recent mixed-precision solve on this
  /// factorization: refinement iterations applied, the final relative
  /// residual, and whether refine_tol was actually reached (a too-tight
  /// target reports converged = false instead of looping). Default-
  /// constructed before any solve and for Precision::F64 solvers, which
  /// never refine. Last-writer-wins under concurrent solves — a
  /// diagnostic surface, like last_solve_stats().
  [[nodiscard]] RefineResult last_refine() const;

  /// Number of points (= matrix dimension).
  [[nodiscard]] int n() const;
  /// The structure family this solver was built with.
  [[nodiscard]] SolverStructure structure() const;
  /// The cluster tree (its points() are the TREE ordering solve_in_place
  /// works in).
  [[nodiscard]] const ClusterTree& tree() const;
  /// ULV statistics (H2/HSS structures; nullptr for BLR/HODLR).
  [[nodiscard]] const UlvStats* ulv_stats() const;
  /// Largest rank the factorization kept (skeleton / tile / off-diagonal
  /// rank, by structure).
  [[nodiscard]] int max_rank_used() const;

  /// Counters of the out-of-core factor store: adopted blocks, spill-file
  /// writes, evictions, demand faults vs. prefetch hits, and the resident
  /// high-water mark (see SpillStats for the budget bound). All zero when
  /// spilling is off and the solver was never demoted, and for BLR/HODLR
  /// backends.
  [[nodiscard]] SpillStats spill_stats() const;

  /// Demote the factorization to the disk tier under `dir`: every factor
  /// block is persisted to a checksummed spill file and its resident
  /// payload dropped, after in-flight solves drain. The solver stays fully
  /// usable — each solve faults its read set back in chunk by chunk — at
  /// near-zero resident factor bytes, which is how h2::Server turns its
  /// cache eviction into demotion. Affects every copy sharing this
  /// factorization. Returns false for BLR/HODLR backends (not demotable;
  /// the server erases those instead). Throws std::runtime_error if the
  /// spill directory cannot be created or a spill write fails.
  bool demote_to_disk(const std::string& dir);
  /// Undo demote_to_disk(): restore the previous resident budget and fault
  /// the factor back into RAM. No-op unless currently demoted.
  void promote();

 private:
  struct Impl;
  explicit Solver(std::shared_ptr<const Impl> impl) : impl_(std::move(impl)) {}

  std::shared_ptr<const Impl> impl_;
};

}  // namespace h2
