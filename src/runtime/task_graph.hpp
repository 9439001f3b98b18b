#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace h2 {

using TaskId = int;

/// Static per-task classification carried by the graph: `label` names the
/// task kind for traces ("getrf", "basis", ...), `owner` the block row /
/// cluster / tile that owns the work (distributed ownership models), `level`
/// the tree level the task belongs to (-1 when not level-structured).
struct TaskMeta {
  std::string label;
  int owner = -1;
  int level = -1;
};

/// One executed-task record; the trace is the Fig. 13 artifact and the input
/// to the distributed scheduling simulator (src/dist).
struct TaskRecord {
  TaskId id = -1;
  int worker = -1;
  int owner = -1;     ///< owning cluster / tile row (from TaskMeta)
  int level = -1;     ///< tree level (from TaskMeta)
  double t_start = 0.0;  ///< seconds, monotonic epoch
  double t_end = 0.0;
  std::string label;

  [[nodiscard]] double duration() const { return t_end - t_start; }
};

/// Aggregate statistics of one task-graph execution.
struct ExecStats {
  double wall_seconds = 0.0;
  double useful_seconds = 0.0;    ///< sum of task durations
  int n_workers = 0;
  std::vector<TaskRecord> records;
  /// Per-worker-lane executed/stolen counts of THIS execution (deltas of the
  /// pool's cumulative counters; meaningful when the pool runs one graph at
  /// a time, which is how every executor in this repo uses it).
  std::vector<ThreadPool::WorkerCounters> worker_counters;
  /// High-water mark of the tracked block bytes (runtime/block_pool's
  /// blockmem counters) during this execution's window, and the live bytes
  /// at its end. The factorization's release tasks exist to keep the peak at
  /// O(active levels); this is where that bound is measured. Same caveat as
  /// worker_counters: the window is per-process, so it is meaningful when
  /// one block-tracking graph executes at a time.
  std::uint64_t peak_block_bytes = 0;
  std::uint64_t live_block_bytes = 0;
  /// Out-of-core traffic of this execution's window (solve sweeps on a
  /// spill-enabled factorization; all zero otherwise): step-acquired blocks
  /// that were already resident when the sweep reached them vs. blocks the
  /// sweep had to demand-read, and the payload bytes of those demand reads.
  /// A healthy prefetcher keeps prefetch_misses near zero.
  std::uint64_t prefetch_hits = 0;
  std::uint64_t prefetch_misses = 0;
  std::uint64_t spill_fault_bytes = 0;

  /// Tasks that arrived at their worker by stealing (0 with a single
  /// worker — a worker cannot steal from itself).
  [[nodiscard]] std::uint64_t total_steals() const {
    std::uint64_t s = 0;
    for (const auto& w : worker_counters) s += w.stolen;
    return s;
  }

  /// Fraction of worker-time NOT spent inside tasks (scheduling overhead +
  /// dependency stalls) — the red-vs-green ratio of the paper's Fig. 13.
  [[nodiscard]] double overhead_fraction() const {
    const double capacity = wall_seconds * n_workers;
    return capacity > 0.0 ? 1.0 - useful_seconds / capacity : 0.0;
  }
};

/// The callable-free skeleton of a TaskGraph: per-task metadata plus the
/// edge structure. Value-copyable, so a factorization can hand its recorded
/// DAG to the scheduling simulator (src/dist) long after the graph — whose
/// task closures reference factorization internals — is gone.
struct DagRecord {
  std::vector<TaskMeta> meta;
  std::vector<std::vector<TaskId>> successors;
  /// Per-task scheduling priorities at execution time (empty when none were
  /// set). Replayers can hand these straight back to a scheduler.
  std::vector<double> priority;
  /// Per-task output payload in bytes — the data a consumer on another rank
  /// would have to receive over an edge from this task. Empty when the
  /// producer never recorded payloads (TaskGraph::set_out_bytes), mirroring
  /// the `priority` contract, so replayers branch on .empty() rather than
  /// charging phantom zero-byte messages as if they were measured.
  std::vector<double> out_bytes;

  [[nodiscard]] int n_tasks() const { return static_cast<int>(meta.size()); }
  [[nodiscard]] bool empty() const { return meta.empty(); }
};

/// bottom_level[i] = longest remaining occupancy (duration + per-task
/// overhead) path starting at task i — the classic list-scheduling priority.
/// `successors` may have fewer entries than `n_tasks` (missing = none);
/// empty `durations` means unit durations (the bottom level is then the
/// longest chain length in tasks). The one shared priority policy: both
/// TaskGraph::set_critical_path_priorities() and the dist scheduling
/// simulator rank tasks through this function. Throws std::invalid_argument
/// on out-of-range successor indices, std::logic_error on cycles.
std::vector<double> bottom_levels(int n_tasks,
                                  const std::vector<std::vector<TaskId>>& successors,
                                  const std::vector<double>& durations = {},
                                  double per_task_overhead = 0.0);

/// Overlay the bulk-synchronous shape on a DAG under construction: between
/// every two consecutive non-empty `phases` (task groups listed in an order
/// every existing edge already respects), one barrier task minted by
/// `add_barrier()` that every task of the earlier group feeds and every task
/// of the later group waits on; `add_edge(before, after)` wires the edges.
/// Works on any graph representation (TaskGraph, DagRecord) through the
/// two callbacks.
template <class AddBarrier, class AddEdge>
void add_phase_barriers(const std::vector<std::vector<TaskId>>& phases,
                        AddBarrier&& add_barrier, AddEdge&& add_edge) {
  const std::vector<TaskId>* before = nullptr;
  for (const std::vector<TaskId>& group : phases) {
    if (group.empty()) continue;
    if (before != nullptr) {
      const TaskId b = add_barrier();
      for (const TaskId t : *before) add_edge(t, b);
      for (const TaskId t : group) add_edge(b, t);
    }
    before = &group;
  }
}

/// A one-shot dependency-counted task DAG (PaRSEC/StarPU substitute).
///
/// Tasks become ready when all their predecessors finish; ready tasks are
/// executed by a ThreadPool. Execution records per-task spans so that the
/// same DAG can afterwards be *replayed* on any number of simulated workers
/// by the scheduling simulator — this is how the strong-scaling figures are
/// produced on a single-core host.
class TaskGraph {
 public:
  /// Register a task; returns its id. `label` classifies the task for traces
  /// (e.g. "getrf", "trsm", "gemm"); `owner`/`level` tag the owning block
  /// row and tree level for ownership-aware replay (-1: untagged).
  TaskId add_task(std::function<void()> fn, std::string label = {},
                  int owner = -1, int level = -1);

  /// `after` may not start until `before` has finished.
  void add_dependency(TaskId before, TaskId after);

  /// Scheduling priority of one task (higher runs earlier once ready;
  /// default 0). The executor releases a task's ready successors lowest
  /// priority first, so the highest sits on top of the worker's LIFO deque;
  /// the roots enter the pool's shared queue, which pops by priority.
  /// Called after set_critical_path_priorities it refines individual ranks
  /// (the factorization overlays its release tasks on top of the
  /// critical-path ranking this way).
  void set_priority(TaskId id, double priority);

  /// Output payload of one task in bytes (what a cross-rank consumer of its
  /// result would receive). Purely descriptive — execution ignores it; it is
  /// exported by record() for the dist-layer simulator, which charges the
  /// alpha-beta CommModel on cross-rank DAG edges. Payloads (skeleton ranks)
  /// are only known once the numerics ran, so tasks capture them at FREE
  /// time: a task may call this on its OWN id from inside its body (each
  /// slot is pre-sized by add_task and written by exactly one task, so
  /// concurrent captures never touch the same element), or the owner may
  /// call it after execute().
  void set_out_bytes(TaskId id, double bytes);

  /// Set every task's priority to its bottom level — the length (in tasks)
  /// of the longest dependency chain hanging off it, i.e. the critical-path
  /// distance to the DAG's end. Computed by bottom_levels() on unit
  /// durations — the same function the dist scheduling simulator ranks by,
  /// so executor and simulator share one policy. Call after all edges are
  /// added.
  void set_critical_path_priorities();

  [[nodiscard]] const std::vector<double>& priorities() const {
    return priority_;
  }

  [[nodiscard]] int n_tasks() const { return static_cast<int>(tasks_.size()); }
  [[nodiscard]] const std::vector<std::vector<TaskId>>& successors() const {
    return successors_;
  }
  [[nodiscard]] const std::vector<int>& predecessor_counts() const {
    return n_predecessors_;
  }
  [[nodiscard]] const std::vector<TaskMeta>& meta() const { return meta_; }

  /// Copy out the callable-free structure (metadata + edges + priorities +
  /// payloads). `priority` is exported only when one was assigned
  /// (set_priority / set_critical_path_priorities); otherwise it is empty —
  /// per DagRecord's contract — so replayers branch on .empty() instead of
  /// misreading placeholder zeros. `out_bytes` follows the same contract:
  /// empty unless set_out_bytes recorded any.
  [[nodiscard]] DagRecord record() const {
    return {meta_, successors_,
            priority_set_ ? priority_ : std::vector<double>{},
            out_bytes_set_.load(std::memory_order_acquire)
                ? out_bytes_
                : std::vector<double>{}};
  }

  /// Execute the whole DAG on `pool`'s workers — the pool is borrowed, not
  /// owned, so callers can run many graphs through one process-wide pool.
  /// Can only be called once. Throws std::logic_error (before running any
  /// task) when dependency cycles make part of the graph unexecutable (the
  /// message names the stuck tasks), or when called from a worker of `pool`
  /// itself: execute() blocks the calling thread, so a pool draining into
  /// itself can deadlock silently — the guard turns that into an error.
  /// A task that throws does not take the process down: the first
  /// exception is captured, the bodies of the tasks still pending are
  /// skipped (their successors are still released, so the graph drains),
  /// and the exception is rethrown here, on the caller.
  ExecStats execute(ThreadPool& pool);

  /// Run the whole DAG on the calling thread, one task at a time in
  /// topological_order() — for callers that are themselves running on the
  /// pool they would otherwise execute on. Records no ExecStats; a task's
  /// exception propagates directly. Can only be called once (shares the
  /// one-shot guard with execute()).
  void run_inline();

  /// A topological order of the tasks (Kahn's algorithm, roots in id
  /// order, breadth first). Throws std::logic_error naming the stuck tasks
  /// when dependency cycles make part of the graph unexecutable.
  [[nodiscard]] std::vector<TaskId> topological_order() const;

  /// Convenience overload: execute on a freshly spawned pool of `n_threads`
  /// workers that lives only for this call.
  ExecStats execute(int n_threads);

  /// Write the trace as CSV (task id, label, owner, level, worker, span).
  /// `#`-prefixed comment lines ahead of the header carry the per-worker
  /// executed/stolen counters.
  static bool write_trace_csv(const ExecStats& stats, const std::string& path);

 private:
  std::vector<std::function<void()>> tasks_;
  std::vector<TaskMeta> meta_;
  std::vector<std::vector<TaskId>> successors_;
  std::vector<int> n_predecessors_;
  std::vector<double> priority_;
  std::vector<double> out_bytes_;
  bool priority_set_ = false;  ///< any priority assigned (see record())
  /// Atomic because tasks may record their own payload mid-execution; the
  /// release store pairs with record()'s acquire load (record() runs after
  /// execute() returns, so the values themselves are already synchronized —
  /// the atomic keeps the flag itself race-free).
  std::atomic<bool> out_bytes_set_{false};
  bool executed_ = false;
};

}  // namespace h2
