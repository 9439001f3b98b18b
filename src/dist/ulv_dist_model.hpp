#pragma once

#include "core/ulv_options.hpp"
#include "dist/rank_map.hpp"
#include "dist/schedule_sim.hpp"
#include "hmatrix/block_structure.hpp"

namespace h2 {

/// How UlvDistModel::time charges communication on p ranks.
enum class CommCharging {
  /// Charge the alpha-beta CommModel on every CROSS-RANK DAG EDGE of the
  /// recorded factorization DAG (message size = the producer task's recorded
  /// block payload), with every task pinned to its RankMap owner — the same
  /// subtree-partition process tree the paper distributes over. This is the
  /// default: one mechanism (the recorded DAG + the rank map) behind both
  /// the shared-memory Fig. 11 replay and the distributed Fig. 16 curve.
  EdgeCharged,
  /// The pre-rank-map closed-form term: per-level split-communicator
  /// Allgather costs (ceil(log2 q) latencies + beta times the surviving
  /// skeleton payload) added on top of the free-placement compute schedule.
  /// Kept as the ablation — it knows level sizes but not which edges
  /// actually cross ranks.
  Analytic,
};

/// Performance model of the dependency-free ULV factorization on p workers,
/// built from one *measured* serial run (`UlvOptions::record_tasks`).
///
/// Mapping to the paper's figures:
///  - Fig. 11 (shared-memory strong scaling): `shared_memory_time(p)`
///    replays the recorded per-task durations through the ULV's true
///    dependency structure — within a phase of a level (fill, basis,
///    project, eliminate, merge) every block row is independent (the
///    paper's Sec. III contribution), and consecutive phases and levels
///    are ordered only by the recorded edges. No task-runtime overhead is
///    charged: the
///    static structure needs no dynamic dependency tracking.
///  - Fig. 12 (leaf size): smaller leaves mean more block rows per phase,
///    i.e. wider phase groups in the replayed DAG.
///  - Fig. 16 (distributed strong scaling): `time(p, comm)` replays the SAME
///    recorded DAG with every task pinned to its RankMap rank (subtree
///    partition, replicated top levels) and the alpha-beta CommModel charged
///    on every edge whose endpoints live on different ranks
///    (CommCharging::EdgeCharged, the default); the pre-rank-map analytic
///    per-level Allgather term survives as CommCharging::Analytic.
///
/// Aggregate-initializable: `UlvDistModel{&f.stats(), &h.structure()}`.
struct UlvDistModel {
  const UlvStats* stats = nullptr;            ///< must outlive the model
  const BlockStructure* structure = nullptr;  ///< must outlive the model

  /// The recorded task DAG as simulator input: the REAL executed DAG
  /// (UlvStats::dag/exec, populated by record_tasks) — measured durations on
  /// the true edge structure, so simulated schedules respect (only) the
  /// actual dependencies and may overlap phases and levels (or, for the
  /// bulk-synchronous shape, wait at its recorded barriers). Empty when no
  /// DAG was recorded.
  [[nodiscard]] ScheduleInput replay_input() const;

  /// replay_input() made rank-aware for p ranks: every task pinned to its
  /// RankMap owner (ScheduleInput::owner — the same pinning contract every
  /// simulator consumer uses) and carrying the block payload the
  /// factorization recorded per task (ScheduleInput::out_bytes), so
  /// list_schedule charges the CommModel on exactly the cross-rank edges.
  /// Requires the recorded DAG and a non-null `structure`; otherwise the
  /// input comes back unpinned, equal to replay_input().
  [[nodiscard]] ScheduleInput distributed_input(int p) const;

  /// Whether a real recorded DAG backs this model (record_tasks).
  /// EdgeCharged charging needs this AND a non-null `structure` (the rank
  /// map reads the tree depth from it); when either is missing, time()
  /// silently falls back to Analytic and distributed_input() comes back
  /// unpinned.
  [[nodiscard]] bool has_recorded_dag() const;

  /// Predicted factorization time on p shared-memory cores (no
  /// communication, no runtime overhead) — the Fig. 11 "OUR CODE" curve.
  [[nodiscard]] double shared_memory_time(int p) const;

  /// Predicted factorization time on p distributed ranks — the Fig. 16 ULV
  /// curve. EdgeCharged (default) replays the rank-pinned DAG through
  /// list_schedule with the alpha-beta model on cross-rank edges; Analytic
  /// adds the closed-form per-level Allgather term to the free-placement
  /// schedule instead. With p = 1 neither mode charges any communication,
  /// and EdgeCharged equals shared_memory_time(1) exactly (the CI sanity
  /// gate). Without a recorded DAG, EdgeCharged falls back to Analytic.
  [[nodiscard]] double time(int p, const CommModel& comm,
                            CommCharging charging =
                                CommCharging::EdgeCharged) const;

  /// Communication seconds charged by the ANALYTIC mode on top of the
  /// compute schedule (0 for p <= 1).
  [[nodiscard]] double comm_seconds(int p, const CommModel& comm) const;

  /// Bytes of skeleton data surviving `level`'s elimination: for each
  /// cluster, its rank^2 skeleton block replicated across the diagonal,
  /// dense-neighbor, and admissible couplings that the merge re-assembles.
  /// (The Analytic mode's per-level Allgather payload.)
  [[nodiscard]] double level_bytes(int level) const;
};

}  // namespace h2
