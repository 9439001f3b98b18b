#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/ulv_options.hpp"
#include "hmatrix/h2_matrix.hpp"
#include "linalg/batch.hpp"
#include "linalg/linalg.hpp"
#include "storage/spill_store.hpp"

namespace h2 {

/// ULV factorization engine of an H^2 / HSS / BLR^2 matrix (the paper's core
/// algorithm, Secs. II-III), templated on the element precision T of the
/// stored factor: T = double is the historical engine, T = float the
/// mixed-precision backend whose blocks (and spill files, and pool traffic)
/// cost half the bytes. The fp64 input matrix is rounded to T exactly once,
/// where its data enters the engine (from_f64); everything after — the basis
/// pipeline, elimination, solve sweeps — runs in T, with norms and flop/byte
/// accounting reported in precision-true units (a block's bytes use
/// sizeof(T); a flop is a flop).
///
/// Per level, leaf to root:
///  1. pre-compute the fill-in column spaces per block row (Fig. 7);
///  2. build the square shared basis [U^S U^R] per cluster from the
///     concatenated fill-in and low-rank blocks (Eqs. 27-28);
///  3. project every block onto the bases (USV form, Eqs. 8-9);
///  4. eliminate the redundant variables — in Parallel mode every block row
///     independently (the paper's contribution), in Sequential mode
///     right-looking with trailing-sub-matrix updates (the Sec. II.D
///     baseline);
///  5. merge the skeleton sub-blocks into the parent level (Eq. 22).
/// The final merged block is LU-factorized densely.
///
/// The numerics of each phase live in per-cluster `body_*` methods, and one
/// executor runs them: the factorization is built as a dependency-counted
/// TaskGraph (one task per phase x cluster; fill→basis→project→eliminate
/// within a block row, project→schur→merge toward the parent, merge→fill
/// across levels so level L-1 starts while level L drains) and executed on a
/// ThreadPool. The ablations are shapes of that graph: UlvExecutor::
/// PhaseLoops adds a barrier task between consecutive (level, phase)
/// groups, and UlvMode::Sequential chains one trailing-update task per
/// pivot in place of a level's independent eliminations. Every shape and
/// worker count produces bitwise-identical factors — per precision: the
/// fp32 engine has exactly the same determinism contract as the fp64 one.
///
/// The matrix must be symmetric (all built-in kernels are), which makes the
/// shared row and column bases coincide; the factorization itself is a
/// general LU (Eqs. 11-15), not a Cholesky, so SPD-ness is not required.
///
/// The ClusterTree referenced by the input H2Matrix must outlive this object;
/// the H2Matrix itself is only needed during construction.
///
/// Most callers want the UlvFactorization facade below, which picks the
/// engine from UlvOptions::precision and keeps the fp64 call surface.
template <class T>
class UlvEngine {
 public:
  /// The engine's element-precision block types. Member typedefs shadow the
  /// namespace-scope fp64 aliases on purpose: the phase bodies read exactly
  /// as they did when the engine was fp64-only.
  using Matrix = MatrixT<T>;
  using MatrixView = MatrixViewT<T>;
  using ConstMatrixView = ConstMatrixViewT<T>;
  using GemmTask = GemmTaskT<T>;
  using TrsmTask = TrsmTaskT<T>;
  using QrTask = QrTaskT<T>;
  using PivotedQr = PivotedQrT<T>;

  UlvEngine(const H2Matrix& a, const UlvOptions& opt);
  /// Discharges the factor's persistent blocks from the process-wide
  /// blockmem live-byte counter (runtime/block_pool): live bytes track
  /// blocks that exist, and the factor's cease to with the object.
  ~UlvEngine();

  /// In-place solve A x = b; b is n x nrhs in TREE ordering (the ordering of
  /// ClusterTree::points(), NOT the caller's original point order — use
  /// ClusterTree::to_tree_order/from_tree_order, or the h2::Solver facade
  /// which handles the permutation). The forward/backward sweeps execute as
  /// a task DAG whose structure was recorded once at factorization time
  /// (see solve_dag()) on the engine's pool (see pool_). A solve running
  /// on a worker of that pool runs the same graph inline on its own thread
  /// instead. Every DAG shape and worker count produces bitwise-identical
  /// solutions. Thread-safe: concurrent solves on one factorization share
  /// only read-only factor data.
  void solve(MatrixView b) const;

  /// log|det A| from the triangular factors (orthogonal transforms drop out).
  [[nodiscard]] double logabsdet() const;

  [[nodiscard]] const UlvStats& stats() const { return stats_; }
  [[nodiscard]] int depth() const { return depth_; }

  /// Skeleton rank of a cluster (tests/ablations).
  [[nodiscard]] int rank(int level, int lid) const {
    return levels_[level].rank[lid];
  }

  /// Execution statistics of the most recent DAG-executed solve on this
  /// factorization (worker lanes, per-task spans, executed/stolen counters —
  /// the same ExecStats the factorization's own execution reports). Empty
  /// until a solve executed on a pool; inline solves (submitted onto their
  /// own pool's worker) do not touch it. Concurrent solves overwrite it
  /// last-writer-wins — it is a diagnostic surface, not a per-solve result;
  /// SolveHandle::stats() snapshots it at solve completion. When the
  /// H2_SOLVE_TRACE environment variable names a file, every DAG solve also
  /// rewrites it with the trace CSV (TaskGraph::write_trace_csv format).
  [[nodiscard]] ExecStats last_solve_stats() const;

  /// Number of DAG-executed solves completed on this factorization — bumped
  /// exactly when last_solve_stats() changes. Snapshot it around a solve to
  /// tell whether THAT solve produced a new trace (an inline solve does
  /// not): the facade's SolveHandle::stats uses
  /// this to avoid presenting a stale sibling trace as its own.
  [[nodiscard]] std::uint64_t solve_stats_generation() const;

  /// The solve DAG recorded at factorization time (empty only for a
  /// depth-0 tree). The first half is the forward sweep's block-row
  /// structure (fwd_xform -> fwd_subst -> fwd_down -> fwd_merge per level,
  /// rooted at "top"); the second half is its mirror for the backward
  /// sweep — every forward task has a backward twin and every forward edge
  /// is reused REVERSED (bwd_split <- bwd_xs <- bwd_y <- bwd_combine).
  /// Under the PhaseLoops shape "barrier" tasks follow the twins, one
  /// between consecutive (level, phase) groups. DagRecord::priority carries
  /// the critical-path (bottom-level) ranks that drive the executor.
  [[nodiscard]] const DagRecord& solve_dag() const { return solve_dag_; }

  /// Counters of the out-of-core factor store (src/storage). All zero when
  /// the factorization runs in RAM (UlvOptions::spill_dir empty and never
  /// demoted).
  [[nodiscard]] SpillStats spill_stats() const;

  /// Demote the factor to disk under `dir`: every factor block is persisted
  /// and its resident payload dropped, leaving the factorization solvable
  /// (each solve faults its read set back in chunk by chunk) at near-zero
  /// resident factor bytes — the serving cache's cold tier. Creates the
  /// store on first call when the factorization was built without
  /// spill_dir. Waits for in-flight solves to drain (new solves block until
  /// the demotion finished), so it is safe under concurrent traffic.
  /// Returns true (the ULV factor is always demotable). Throws
  /// std::runtime_error if the spill directory cannot be created or a spill
  /// write fails.
  bool demote_to_disk(const std::string& dir);
  /// Undo demote_to_disk(): restore the resident budget the factor ran with
  /// (everything, for a store that only exists because of the demotion) and
  /// fault the blocks back in. No-op unless currently demoted.
  void promote();

 private:
  using Key = std::pair<int, int>;

  struct Level {
    int nb = 0;
    std::vector<int> size;  ///< current-coordinate size per cluster
    std::vector<int> rank;  ///< skeleton rank per cluster
    /// Square orthonormal basis per cluster, columns [skeleton | redundant].
    std::vector<Matrix> q;
    /// Projected (and, after elimination, strip-solved) dense blocks.
    std::map<Key, Matrix> dense;
    /// getrf pivots of each diagonal RR block.
    std::vector<std::vector<int>> rr_piv;
  };

  /// Transient per-level block storage consumed by the phase bodies: the
  /// current-coordinate blocks entering each level plus the intermediates of
  /// the basis pipeline. Defined in the .cpp.
  struct Workspace;

  /// Copy an fp64 source block (the H2Matrix's data) into the engine's
  /// element type — the ONE place factorization inputs are rounded to T.
  static Matrix from_f64(ConstMatrixViewT<double> v) {
    if constexpr (std::is_same_v<T, float>) {
      return to_f32(v);
    } else {
      return Matrix::from(v);
    }
  }

  /// The executor: emit one task per (phase, cluster), wire the true data
  /// dependencies (plus the shape's barriers or trailing chain), and run
  /// the DAG on a ThreadPool.
  void factorize(const H2Matrix& a);
  /// Pre-size every level's containers and pre-insert every map key, so the
  /// phase bodies only ever assign through stable references (required for
  /// race-free concurrent execution).
  void prepare(Workspace& w);

  // Phase bodies (single source of truth for the numerics). All bodies are
  // row-owned: a body with owner i writes only row-i state, so within a
  // phase no two bodies touch the same block. See factorize for the
  // cross-phase write-set analysis behind the DAG's edges.
  void body_assemble(Workspace& w, int level, int i);
  void body_ry(Workspace& w, int level, int i);
  void body_project_lr(Workspace& w, int level, int i);
  void body_fill(Workspace& w, int level, int k);
  void body_basis(Workspace& w, int level, int i);
  void body_project_row(Workspace& w, int level, int i);
  void body_eliminate(int level, int k);
  /// Sequential mode's pivot task: body_eliminate plus the column strips
  /// and every trailing-sub-matrix update of pivot k.
  void body_eliminate_trailing(int level, int k);
  void body_col_solve(int level, int k);
  void body_schur(int level, int i, int j, bool admissible);
  void body_dropped(int level, int k);
  void body_merge(Workspace& w, int level, int pi, int pj);
  void body_top(Workspace& w);

  /// Express rows of cluster (level, lid), given in full point coordinates
  /// (always fp64 — this is H2Matrix data), in the current (child-skeleton)
  /// coordinates of `level`, rounding to T at the leaves.
  auto current_rows(int level, int lid, ConstMatrixViewT<double> x_full) const
      -> Matrix;
  std::vector<int> schur_k_list(int level, int i, int j) const;

  void add_dropped(double fro2);

  // ---- Block lifetime (docs/ARCHITECTURE.md "Block lifetime & memory").
  // Every block stored into factor or workspace state goes through these, so
  // the blockmem live/peak counters and the per-factorization total stay
  // exact — in real sizeof(T) bytes, so an fp32 factorization's peak is
  // honestly half-weighted. All three only assign through the caller's
  // (pre-keyed, stable) reference — map structure is never mutated during
  // execution.
  /// Store a freshly built block into a tracked slot (charges its bytes).
  void track_store(Matrix& dst, Matrix&& fresh);
  /// Move a block between two tracked slots (net accounting unchanged).
  void track_take(Matrix& dst, Matrix& src);
  /// Free a tracked block: discharge its bytes and recycle the storage
  /// through the BlockPool arena. The slot is left empty.
  void track_drop(Matrix& m);

  // Per-resource releases, fired by the DAG's release tasks. All gated on
  // opt_.release_blocks by the callers.
  void release_ry_row(int level, int i);
  void release_skel_block(int level, int i, int j);
  /// Drop whatever the per-resource releases left in `level`'s containers
  /// (already-empty values, map nodes, the fill_p vector) once the level has
  /// fully drained — the level-complete remnant cleanup.
  void release_level_remnants(Workspace& w, int level);

  // ---- Solve (ulv_solve.cpp). Like the factorization, the numerics live in
  // per-cluster sbody_* methods, run by the task DAG solve_via_dag
  // instantiates from the recorded solve_dag_ plan.
  struct SolveScratch;
  void init_solve_scratch(SolveScratch& s, int nrhs) const;
  /// Record the solve's task structure (forward sweep + reversed backward
  /// mirror + the shape's barriers + critical-path priorities) into
  /// solve_dag_. Called once by the constructor; O(#tasks + #edges),
  /// independent of nrhs.
  void build_solve_plan();
  /// Instantiate the plan for one right-hand side block and run it on
  /// pool_ — or inline on the calling thread when it is a worker of pool_
  /// (no ExecStats published then).
  void solve_via_dag(MatrixView b) const;
  // Forward-sweep bodies (Eqs. 16-19).
  void sbody_transform(SolveScratch& s, ConstMatrixView b, int level,
                       int c) const;
  void sbody_subst(SolveScratch& s, int level, int k) const;
  void sbody_down(SolveScratch& s, int level, int i) const;
  void sbody_merge(SolveScratch& s, int level, int p) const;
  void sbody_top(SolveScratch& s) const;
  // Backward-sweep bodies (the forward bodies' mirrors).
  void sbody_xsplit(SolveScratch& s, int level, int c) const;
  void sbody_y(SolveScratch& s, int level, int k) const;
  void sbody_combine(SolveScratch& s, MatrixView b, int level, int c) const;

  // ---- Out-of-core tier (src/storage; docs/ARCHITECTURE.md "Storage
  // tier"). Active when opt_.spill_dir is set (store created before the
  // factorization so blocks spill at their release points) or after
  // demote_to_disk(). Spilling moves bytes, never transforms them, so every
  // spill/fault/prefetch decision is bitwise-invisible to the results.
  /// Create store_ (used by the constructor and by a first demotion).
  void spill_attach(const std::string& dir, std::uint64_t budget_bytes,
                    int io_threads);
  /// Hand level's final dense blocks to the store (called at the level's
  /// remnant-release point; idempotent). A store error thrown inside the
  /// release task surfaces on the constructor's thread like any task error.
  void spill_register_dense(int level);
  /// Adopt everything the per-level hook does not cover (q bases — read by
  /// current_rows until the last level drains — top_lu_, and all dense
  /// levels when release_blocks is off). Called once, after factorize().
  void spill_finish_registration();
  /// Chunk the solve sweep into an ordered list of pin steps (per level and
  /// phase, clusters grouped to ~budget/4 bytes of factor reads), assign
  /// every recorded solve task its step, and seal the store with the
  /// step->slots plan — the prefetcher's oracle. Defined in ulv_solve.cpp.
  void build_spill_plan();
  /// Step chunking of one (level, phase): step_of[cluster] -> global step,
  /// plus the chunks in execution order as {step, first, last} ranges in
  /// iteration space (descending phases iterate cluster nb-1-j).
  struct SpillChunks {
    std::vector<int> step_of;
    std::vector<std::array<int, 3>> chunks;
  };
  /// RAII solve gate: demote_to_disk() drains these before evicting.
  struct SolveGuard {
    explicit SolveGuard(const UlvEngine& u);
    ~SolveGuard();
    const UlvEngine* u_;
  };

  /// Per-task body dispatch of the solve plan, fixed at recording time so
  /// per-solve instantiation is an array walk, not string comparisons.
  enum class SolveKind : std::uint8_t {
    kFwdXform,
    kFwdSubst,
    kFwdDown,
    kFwdMerge,
    kTop,
    kBwdSplit,
    kBwdXs,
    kBwdY,
    kBwdCombine,
    kBarrier,  ///< PhaseLoops shape: no-op between phase groups
  };

  const ClusterTree* tree_ = nullptr;
  BlockStructure structure_;  // copied: the H2Matrix may be discarded
  UlvOptions opt_;
  /// The pool the factorization and every solve execute on, chosen once by
  /// the constructor: UlvOptions::pool when given; else own_pool_, a pool
  /// of n_workers this engine owns for its whole lifetime, when
  /// n_workers > 0; else ThreadPool::global().
  ThreadPool* pool_ = nullptr;
  std::unique_ptr<ThreadPool> own_pool_;
  int depth_ = 0;
  /// Total tracked block bytes owned by THIS factorization — what the
  /// destructor discharges from the process-wide blockmem counter.
  std::atomic<std::uint64_t> tracked_bytes_{0};

  std::vector<Level> levels_;  ///< index = level; [0] unused (top is dense)
  /// Admissible skeleton blocks per level (filled during projection, updated
  /// by Schur products, consumed by the merge).
  std::vector<std::map<Key, Matrix>> skel_;
  /// R factor of the QR of each admissible block's V factor (per level):
  /// the magnitude-preserving right factor for basis concatenations.
  std::vector<std::map<Key, Matrix>> ry_;
  Matrix top_lu_;
  std::vector<int> top_piv_;
  /// The solve's task structure, recorded once at factorization time and
  /// instantiated per solve by solve_via_dag (see solve_dag()).
  DagRecord solve_dag_;
  std::vector<SolveKind> solve_kind_;  ///< parallel to solve_dag_.meta

  // ---- Out-of-core tier state. Declared after levels_/top_lu_ so the
  // store (whose threads may hold pointers into them) is destroyed first.
  std::unique_ptr<SpillStore> store_;
  /// dslot_[level][key] = (slot, payload bytes) of each adopted dense block;
  /// bytes are recorded here because the block itself may be evicted (empty)
  /// by the time the plan is chunked.
  std::vector<std::map<Key, std::pair<SpillStore::SlotId, std::uint64_t>>>
      dslot_;
  /// qslot_[level][c] = (slot, bytes) of each adopted basis (kNoSlot gaps).
  std::vector<std::vector<std::pair<SpillStore::SlotId, std::uint64_t>>>
      qslot_;
  SpillStore::SlotId topslot_ = SpillStore::kNoSlot;
  /// spill_plan_[level][phase] for phases 0 fwd_xform / 1 fwd_subst /
  /// 2 fwd_down (merges ride on it) / 3 bwd_y (descending) / 4 bwd_combine.
  std::vector<std::array<SpillChunks, 5>> spill_plan_;
  int top_step_ = -1;
  int n_spill_steps_ = 0;
  /// Step of every solve_dag_ task (parallel to solve_dag_.meta; -1 for the
  /// PhaseLoops shape's barriers, which read nothing) — solve_via_dag wires
  /// one step task per spill step from it so a sweep never outruns the
  /// pinned window.
  std::vector<int> task_step_;
  std::uint64_t promote_budget_ = 0;
  bool demoted_ = false;
  std::mutex spill_mu_;  ///< registration tables (release tasks may race)
  mutable std::condition_variable solve_gate_cv_;
  mutable int active_solves_ = 0;  ///< guarded by solve_gate_mu_
  mutable std::mutex solve_gate_mu_;

  UlvStats stats_;
  /// Trace of the most recent DAG solve (see last_solve_stats()) and its
  /// completion count; guarded by stats_mutex_ because concurrent solves
  /// may finish at once.
  mutable ExecStats last_solve_stats_;
  mutable std::uint64_t solve_stats_gen_ = 0;
  mutable std::mutex stats_mutex_;
};

/// The engines are explicitly instantiated in core/ulv_factorization.cpp and
/// core/ulv_solve.cpp — nothing else should instantiate their members.
extern template class UlvEngine<double>;
extern template class UlvEngine<float>;

/// Precision-dispatching facade over UlvEngine: the historical fp64 call
/// surface (construct from an H2Matrix, solve fp64 right-hand sides in tree
/// ordering), with UlvOptions::precision choosing the engine underneath.
/// Under Precision::F32, solve() rounds b to fp32 once, runs the fp32
/// sweeps, and widens the result back — one fp32 backward-stable solve,
/// which the facade layer (api/solver + core/refine) wraps in fp64 iterative
/// refinement to recover fp64-grade residuals.
class UlvFactorization {
 public:
  UlvFactorization(const H2Matrix& a, const UlvOptions& opt);
  ~UlvFactorization();

  /// In-place solve A x = b in TREE ordering (see UlvEngine::solve). Under
  /// F32 this is the raw reduced-precision solve: expect ~fp32 residuals
  /// unless the caller refines (core/refine::ulv_refine does).
  void solve(MatrixView b) const;

  [[nodiscard]] double logabsdet() const;
  [[nodiscard]] const UlvStats& stats() const;
  [[nodiscard]] int depth() const;
  [[nodiscard]] int rank(int level, int lid) const;
  [[nodiscard]] ExecStats last_solve_stats() const;
  [[nodiscard]] std::uint64_t solve_stats_generation() const;
  [[nodiscard]] const DagRecord& solve_dag() const;
  [[nodiscard]] SpillStats spill_stats() const;
  bool demote_to_disk(const std::string& dir);
  void promote();

  /// The element precision this factorization stores and sweeps in.
  [[nodiscard]] Precision precision() const {
    return f_ != nullptr ? Precision::F32 : Precision::F64;
  }

 private:
  // Exactly one engine is live, chosen at construction.
  std::unique_ptr<UlvEngine<double>> d_;
  std::unique_ptr<UlvEngine<float>> f_;
};

}  // namespace h2
