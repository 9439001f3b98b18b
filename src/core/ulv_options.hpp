#pragma once

#include <unistd.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/task_graph.hpp"

namespace h2 {

class ThreadPool;

/// Which variant of the ULV factorization to run.
enum class UlvMode {
  /// The paper's contribution (Sec. III): fill-ins are pre-computed per block
  /// row/column and folded into the shared bases, so the per-level
  /// elimination has NO trailing sub-matrix dependencies and every block row
  /// factorizes independently.
  Parallel,
  /// The conventional H2-ULV flow (Sec. II.D): block rows are eliminated in
  /// order; Schur updates are applied to the trailing sub-matrix (all four
  /// S-parts of dense targets) and fill-ins into admissible targets are
  /// recompressed on the fly by projection onto the shared bases. Inherently
  /// serial; kept as the ablation baseline. Runs as the same task DAG with
  /// each level's elimination replaced by a chain of one task per pivot.
  Sequential,
};

/// Shape of the task DAG the factorization and the solve execute as. Both
/// shapes run the same tasks (one per phase x cluster) through the one
/// TaskGraph executor on a ThreadPool; they differ only in edges.
enum class UlvExecutor {
  /// The free DAG: only the true data dependencies — fill→basis→project→
  /// eliminate edges inside a block row, project→schur→merge edges toward
  /// the parent, and merge→fill edges that let level L-1 start while level L
  /// drains. This is the runtime realization of the paper's "no trailing
  /// sub-matrix dependencies" claim, and the default.
  TaskDag,
  /// The bulk-synchronous ablation: the same DAG plus one no-op "barrier"
  /// task per (level, phase) that every task of the phase feeds and every
  /// task of the next phase waits on. Same arithmetic, no inter-phase or
  /// inter-level overlap.
  PhaseLoops,
};

/// Element precision of the factorization's stored blocks and sweeps.
/// F32 halves every factor block (storage, spill files, pool traffic) and
/// runs the factorization and solve arithmetic in fp32; inputs are rounded
/// once where the H2Matrix's fp64 data enters the engine, and accuracy is
/// recovered by fp64 iterative refinement at the facade (see
/// SolverOptions::precision / core/refine). Determinism contracts are
/// per-precision: fp32 runs are bitwise identical across DAG shapes and
/// worker counts, exactly like fp64 runs.
enum class Precision : std::uint8_t { F64, F32 };

struct UlvOptions {
  /// Relative truncation tolerance of the shared-basis QR (and the skeleton
  /// rank it implies).
  double tol = 1e-8;
  /// Optional hard cap on skeleton ranks (-1: none).
  int max_rank = -1;
  /// The fill-in column spaces entering the shared bases are truncated at
  /// fill_tol_factor * tol (relative). Smaller keeps more fill directions
  /// (more accurate elimination, larger skeleton ranks).
  double fill_tol_factor = 0.01;
  /// The paper's key idea: include the pre-computed fill-in directions in the
  /// shared bases (Eqs. 27-28). Turning this off with strong admissibility
  /// reproduces the failure mode the paper fixes (see bench_ablation_fillin).
  bool fillin_augmentation = true;
  UlvMode mode = UlvMode::Parallel;
  /// Element type of the stored factor (see Precision). F32 is the
  /// mixed-precision factorization backend: blocks, spills, and solve sweeps
  /// in fp32 at half the bytes; pair with refinement for fp64 accuracy.
  Precision precision = Precision::F64;
  /// DAG shape of the factorization AND the solve (see UlvExecutor).
  /// Results are bitwise identical across shapes and worker counts: every
  /// task performs the same block operations in the same order.
  UlvExecutor executor = UlvExecutor::TaskDag;
  /// Worker count when no `pool` is given: a positive value makes the
  /// engine own a pool of that size for its whole lifetime, shared by the
  /// factorization and every solve; 0 uses the global pool. Ignored when
  /// `pool` is set — an explicit pool always wins. Use n_workers = 1 when
  /// recording task durations for the scheduling simulator: replayed
  /// timings should be contention-free. Every DAG runs on a work-stealing
  /// pool in critical-path priority order; the order never changes
  /// results, only when each task runs.
  int n_workers = 0;
  /// Pool the task DAGs execute on (nullptr: by n_workers / the global
  /// pool).
  ThreadPool* pool = nullptr;
  /// Free every workspace block the moment its last consumer retires — as
  /// reference-counted release tasks wired into the factorization DAG —
  /// with freed storage recycled through the BlockPool arena. This is what
  /// keeps peak factorization memory at O(a few active levels) instead of
  /// O(whole tree). `false`
  /// retains every block until the factorization ends: the retain-everything
  /// ablation the peak-memory bench baselines against. Results are bitwise
  /// identical either way — releases only ever free dead blocks.
  bool release_blocks = true;
  /// Accumulate the Frobenius mass of all dropped (non-SS) Schur update
  /// components — the quantity the paper argues is negligible once the bases
  /// contain the fill-ins. Costs extra GEMMs; enable in tests/ablations.
  bool measure_dropped = false;
  /// Keep the executed factorization DAG (UlvStats::dag), its execution
  /// trace (UlvStats::exec), and the per-task timing log derived from it
  /// (UlvStats::tasks) — the input of the distributed-memory scheduling
  /// simulator.
  bool record_tasks = false;
  /// Existing writable directory for the out-of-core factor store
  /// (src/storage). Empty (the default) keeps every factor block resident.
  /// Non-empty hands each factor block to a SpillStore at its release point:
  /// background writers persist it, eviction keeps resident factor bytes at
  /// or under spill_budget_bytes, and a prefetcher reads blocks back ahead
  /// of each solve sweep's cursor. Spilling moves bytes, never transforms
  /// them — results stay bitwise identical to the in-RAM run across DAG
  /// shapes and worker counts. Env default: H2_SPILL_DIR.
  std::string spill_dir;
  /// Resident budget (bytes) for spilled factor blocks; only meaningful with
  /// spill_dir set. 0 keeps nothing resident between sweeps (pure disk
  /// tier). Env default: H2_SPILL_MB (mebibytes).
  std::uint64_t spill_budget_bytes = 256ull << 20;
  /// Background writer threads of the spill store (>= 1 when spilling).
  /// Env default: H2_SPILL_THREADS.
  int spill_threads = 2;
  /// Make every solve's per-column bits independent of nrhs: the solve
  /// bodies run their gemms under a width-stable dispatch scope
  /// (detail::WidthStableScope), so the blocked/naive choice — the ONE
  /// nrhs-dependent decision in the solve arithmetic — ignores the column
  /// count. With this on, solving k right-hand sides as one n x k block is
  /// bitwise identical to k separate single-column solves: the contract the
  /// server tier's admission batching is built on (coalesced batch ==
  /// serial requests, bit for bit). Cost: single-column solves above the
  /// dispatch threshold run the packed microkernel at partial lane
  /// occupancy instead of the naive sweep — measured by
  /// bench_server_traffic's latency mode. Off by default: a standalone
  /// solve has no batch to be consistent with.
  bool width_stable_solve = false;

  /// Always ThreadPool::QueuePolicy::WorkSteal. Exists only for the
  /// `ThreadPool(n, o.ulv_options().queue_policy())` call site in
  /// perfbench/perfbench.cpp; goes away with the next change to perfbench.
  [[nodiscard]] ThreadPool::QueuePolicy queue_policy() const {
    return ThreadPool::QueuePolicy::WorkSteal;
  }

  /// Check the options; UlvFactorization runs this before factorizing.
  /// Rejects nonsensical inputs with std::invalid_argument instead of
  /// letting them produce undefined behavior downstream.
  void validate() const {
    if (!(tol > 0.0))
      throw std::invalid_argument(
          "UlvOptions: tol must be > 0 (got " + std::to_string(tol) +
          "); the shared-basis truncation is relative to it");
    if (!(fill_tol_factor > 0.0))
      throw std::invalid_argument(
          "UlvOptions: fill_tol_factor must be > 0 (got " +
          std::to_string(fill_tol_factor) +
          "); fill-in directions are truncated at fill_tol_factor * tol");
    if (n_workers < 0)
      throw std::invalid_argument(
          "UlvOptions: n_workers must be >= 0 (got " +
          std::to_string(n_workers) +
          "); 0 selects the process-wide pool, > 0 a private pool");
    if (!spill_dir.empty()) {
      if (::access(spill_dir.c_str(), W_OK) != 0)
        throw std::invalid_argument(
            "UlvOptions: spill_dir must name an existing writable directory "
            "(got '" +
            spill_dir +
            "'); the out-of-core store creates its files under it "
            "(H2_SPILL_DIR)");
      if (spill_threads < 1)
        throw std::invalid_argument(
            "UlvOptions: spill_threads must be >= 1 when spill_dir is set "
            "(got " +
            std::to_string(spill_threads) +
            "); someone has to write the spill files (H2_SPILL_THREADS)");
    }
  }
};

/// One timed unit of factorization work (granularity = one block task),
/// derived from the execution trace.
struct UlvTaskRecord {
  int level;         ///< tree level the task belongs to (0 = top)
  const char* kind;  ///< "fill", "basis", "project", "eliminate", ...
  int owner;         ///< block row / cluster id owning the task
  double seconds;
};

struct UlvStats {
  /// ranks[level][cluster] = skeleton rank chosen at that level.
  std::vector<std::vector<int>> ranks;
  int max_rank = 0;
  /// Accumulated SQUARED Frobenius norms of all dropped update components
  /// (only populated when measure_dropped); take sqrt for a norm-like value.
  double dropped_mass = 0.0;
  double factor_seconds = 0.0;
  double setup_seconds = 0.0;  ///< fills + bases + projections
  std::uint64_t factor_flops = 0;
  /// High-water mark of tracked block bytes during the factorization
  /// (blockmem window over the DAG execution),
  /// and the bytes still live when it finished (the persistent factor:
  /// projected dense blocks, bases, pivots — what solve() needs). With
  /// release_blocks the peak stays near the final footprint; without it the
  /// whole workspace stacks on top.
  std::uint64_t peak_block_bytes = 0;
  std::uint64_t final_block_bytes = 0;
  /// Out-of-core store (only nonzero when UlvOptions::spill_dir is set):
  /// factor blocks handed to the spill tier, their payload bytes, and the
  /// resident budget they are kept under. The live spill counters (faults,
  /// prefetch hits, resident high-water mark) are on Solver::spill_stats().
  std::uint64_t spilled_blocks = 0;
  std::uint64_t spilled_bytes = 0;
  std::uint64_t spill_budget_bytes = 0;
  /// Flat per-task timing log (only when record_tasks), in task-id order:
  /// the compute tasks of `exec` (project_lr, fill, basis, project,
  /// eliminate, col_solve, schur, merge, top) as (level, kind, owner,
  /// seconds) rows, for consumers that only need per-kind aggregates. The
  /// dependency-free ry/assemble roots and the release and barrier control
  /// tasks are left out.
  std::vector<UlvTaskRecord> tasks;
  /// The executed factorization DAG (record_tasks): the one structure
  /// shared by the real execution, the Fig. 13 trace, and the src/dist
  /// scheduling simulator.
  DagRecord dag;
  /// Execution trace of `dag` (worker lanes + spans).
  ExecStats exec;
};

}  // namespace h2
