#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "api/solver.hpp"

/// \file server.hpp
/// \brief Solver-as-a-service: a factorization cache with admission batching
/// above the h2::Solver facade.
///
/// The whole point of a direct solver is amortization — factor once, answer
/// many right-hand sides fast. h2::Server is the tier that turns that into a
/// serving loop: it caches factorizations under a memory budget (LRU, keyed
/// by what actually determines the bits: points, kernel, and the numerics
/// options), hands out shared-ownership handles so eviction can never
/// invalidate an in-flight solve, and coalesces concurrently-arriving
/// single-RHS requests on the same factorization into blocked multi-RHS
/// sweeps under a small deadline — recovering the ~2x+ RHS/s advantage
/// blocked solves hold over one-at-a-time latency solves (BENCH_SOLVE /
/// BENCH_SERVER trajectories) without changing a single answer: a coalesced
/// batch is bitwise equal to the same requests solved serially. docs/SERVER.md is the design doc;
/// docs/TUNING.md lists the env knobs.
namespace h2 {

/// Default factorization-cache budget in bytes: H2_SERVER_CACHE_MB
/// (megabytes; default 256) at the moment the ServerOptions is constructed.
[[nodiscard]] std::uint64_t server_default_cache_bytes();

/// Default admission deadline in microseconds: H2_SERVER_BATCH_US
/// (default 1000 — the ~1 ms bound a parked request waits for company).
[[nodiscard]] long server_default_batch_us();

/// Default per-sweep batch cap: H2_SERVER_MAX_BATCH (default 64 columns).
[[nodiscard]] int server_default_max_batch();

/// Default spill directory for demoted cache entries: H2_SPILL_DIR (default
/// empty — eviction destroys entries instead of demoting them).
[[nodiscard]] std::string server_default_spill_dir();

/// Configuration of a Server. Defaults come from the environment (the
/// server_default_* helpers; see docs/TUNING.md), so an operator can retune
/// a deployment without recompiling; explicit assignment wins as usual.
struct ServerOptions {
  /// Factorization-cache memory budget in bytes (resident factorizations
  /// only — handles held by clients keep evicted entries alive but off the
  /// books). Crossing the budget evicts least-recently-acquired entries;
  /// the newest entry is never evicted, so one oversized factorization
  /// still serves (the budget then acts as a high-water mark).
  std::uint64_t cache_budget_bytes = server_default_cache_bytes();
  /// How long a parked request waits for company before its leader sweeps
  /// the queue anyway (microseconds). Bounds the latency cost of batching:
  /// a request pays at most one in-flight solve plus this deadline of
  /// queueing before its own sweep starts.
  long batch_deadline_us = server_default_batch_us();
  /// Most right-hand-side columns one coalesced sweep may carry.
  int max_batch = server_default_max_batch();
  /// Coalesce concurrently-arriving single-RHS requests on the same
  /// factorization into blocked sweeps (the throughput mode). `false`
  /// solves every request individually the moment it arrives (pure latency
  /// mode — what bench_server_traffic's baseline measures). Coalescing
  /// never changes an answer: cached solvers are built with
  /// SolverOptions::width_stable_solve, so every solution column's bits are
  /// independent of how many requests rode its sweep (ULV backends only —
  /// BLR/HODLR solves are not width-stable and are never coalesced). Costs
  /// single-RHS latency (see UlvOptions::width_stable_solve).
  bool coalesce = true;
  /// When non-empty (an existing writable directory), eviction DEMOTES ULV
  /// entries instead of destroying them: the factor's blocks move to spill
  /// files under this directory (Solver::demote_to_disk) and the entry
  /// stays cached off the resident books, so the next acquire of the same
  /// key promotes it back (a disk read) instead of refactorizing — the
  /// cache becomes a RAM/disk tiered hierarchy. Empty (the default unless
  /// H2_SPILL_DIR is set) keeps the legacy destroy-on-evict behavior.
  /// Backends without a disk tier (BLR/HODLR) are always destroyed.
  std::string spill_dir = server_default_spill_dir();

  ServerOptions& with_cache_budget_bytes(std::uint64_t v) { cache_budget_bytes = v; return *this; }  ///< chain-set cache_budget_bytes
  ServerOptions& with_batch_deadline_us(long v) { batch_deadline_us = v; return *this; }  ///< chain-set batch_deadline_us
  ServerOptions& with_max_batch(int v) { max_batch = v; return *this; }  ///< chain-set max_batch
  ServerOptions& with_coalesce(bool v) { coalesce = v; return *this; }  ///< chain-set coalesce
  ServerOptions& with_spill_dir(std::string v) { spill_dir = std::move(v); return *this; }  ///< chain-set spill_dir

  /// Throws std::invalid_argument on nonsensical inputs (negative deadline,
  /// max_batch < 1, spill_dir naming a missing or unwritable directory).
  void validate() const;
};

/// One snapshot of the server's metrics surface (Server::stats). Counters
/// are cumulative since construction; gauges (entries, resident_bytes,
/// queue_depth) are instantaneous. Field-by-field reference with worked
/// numbers: docs/SERVER.md.
struct ServerStats {
  /// Number of batch-size histogram buckets (widths 1, 2, 3-4, 5-8, 9-16,
  /// 17-32, >= 33).
  static constexpr int kBatchBuckets = 7;

  std::uint64_t hits = 0;        ///< acquire() calls served from the cache
  std::uint64_t misses = 0;      ///< acquire() calls that built (or joined a build)
  std::uint64_t evictions = 0;   ///< entries evicted to fit the budget
  /// Evictions that demoted the entry to the spill tier instead of
  /// destroying it (spill_dir configured, ULV backend). Every demotion is
  /// also counted in evictions, so `evictions - demotions` is the number of
  /// entries actually destroyed.
  std::uint64_t demotions = 0;
  /// Demoted entries promoted back to RAM by a later cache hit.
  std::uint64_t promotions = 0;
  std::uint64_t entries = 0;     ///< factorizations resident right now
  std::uint64_t resident_bytes = 0;  ///< bytes the resident entries account for
  std::uint64_t budget_bytes = 0;    ///< the configured cache budget
  std::uint64_t demoted_entries = 0;  ///< gauge: entries living in the spill tier
  std::uint64_t demoted_bytes = 0;    ///< gauge: bytes those demoted entries held
  std::uint64_t requests = 0;    ///< solve() calls accepted
  std::uint64_t rhs_served = 0;  ///< right-hand-side columns solved
  std::uint64_t backend_solves = 0;  ///< sweeps issued to h2::Solver::solve
  /// Requests that rode a coalesced sweep of width >= 2 (the admission
  /// queue's win; rhs_served - coalesced_requests went solo).
  std::uint64_t coalesced_requests = 0;
  /// Histogram of backend sweep widths: bucket upper bounds 1, 2, 4, 8,
  /// 16, 32, inf — batch_hist[0] counts single-column sweeps,
  /// batch_hist[6] sweeps of 33+ columns.
  std::array<std::uint64_t, kBatchBuckets> batch_hist{};
  std::uint64_t queue_depth = 0;  ///< requests parked in admission queues right now
  /// Median end-to-end solve() latency in milliseconds over a sliding
  /// window of the most recent requests (0 before any request completes).
  double p50_ms = 0.0;
  /// 99th-percentile solve() latency (same window as p50_ms).
  double p99_ms = 0.0;
};

/// The serving tier: a factorization cache + admission batching above the
/// h2::Solver facade.
///
///   h2::Server server;                       // knobs via env or ServerOptions
///   auto f = server.acquire(points, kernel,  // cache miss: builds; hit: reuses
///                           h2::SolverOptions{}.with_tol(1e-8));
///   h2::Matrix x = server.solve(f, b);       // single-RHS calls coalesce
///
/// Concurrency: every method is safe to call from many threads; that is the
/// design center — solve() calls arriving concurrently on the same handle
/// are what the admission queue coalesces. A Server must outlive its
/// acquire/solve calls; FactorHandles may outlive the Server.
class Server {
 public:
  /// Shared-ownership reference to one cached factorization. Handles keep
  /// the entry alive independently of the cache: eviction only drops the
  /// CACHE's reference, so in-flight solves (and clients holding the
  /// handle) are never invalidated — the entry is freed when the last
  /// holder lets go. Default-constructed handles are empty (valid() is
  /// false); using one throws.
  class FactorHandle {
   public:
    /// Empty handle; valid() is false until assigned from acquire().
    FactorHandle() = default;
    /// True when the handle references a factorization.
    [[nodiscard]] bool valid() const noexcept { return e_ != nullptr; }
    /// The underlying facade object — the escape hatch to everything the
    /// facade exposes (last_solve_stats(), logabsdet(), ulv_stats(), direct
    /// multi-RHS solve() bypassing admission). Throws std::logic_error on
    /// an empty handle.
    [[nodiscard]] const Solver& solver() const;
    /// Bytes this factorization accounts for against the cache budget:
    /// UlvStats::final_block_bytes when the backend reports it, else a
    /// documented size estimate (see docs/SERVER.md).
    [[nodiscard]] std::uint64_t resident_bytes() const;

   private:
    friend class Server;
    struct Entry;
    explicit FactorHandle(std::shared_ptr<Entry> e) : e_(std::move(e)) {}
    std::shared_ptr<Entry> e_;
  };

  /// A server with the given options (validated; defaults come from the
  /// environment — docs/TUNING.md).
  explicit Server(ServerOptions opt = {});
  /// Destruction requires no in-flight acquire/solve calls (clients holding
  /// FactorHandles are fine — entries outlive the cache).
  ~Server();
  Server(const Server&) = delete;             ///< one cache, one owner
  Server& operator=(const Server&) = delete;  ///< one cache, one owner

  /// Get-or-build the factorization for (points, kernel, opt): the cache is
  /// keyed by a digest of the point coordinates, the kernel's identity
  /// (name + probed evaluations, so differently-parameterized kernels of
  /// one family never collide), and the numerics-relevant options (tol,
  /// structure, leaf_size, ... — execution knobs like n_workers are
  /// excluded: they do not change the bits). Concurrent acquires of one key
  /// build once (single-flight); losers block until the build finishes.
  /// The build forces width_stable_solve. A build
  /// failure propagates to every waiter and leaves no cache entry behind.
  [[nodiscard]] FactorHandle acquire(const PointCloud& points,
                                     const Kernel& kernel,
                                     SolverOptions opt = {});

  /// Solve through the admission queue (point ordering, like
  /// Solver::solve). Single-column requests on a busy factorization park up
  /// to batch_deadline_us and ride one blocked sweep with their
  /// contemporaries; multi-column requests and requests on an idle
  /// factorization run immediately. The answer is bitwise the one a
  /// private Solver::solve would have produced.
  /// Throws std::logic_error on an empty handle; rethrows backend errors.
  [[nodiscard]] Matrix solve(const FactorHandle& f, ConstMatrixView b);

  /// Convenience: acquire + solve in one call — the one-liner for clients
  /// that do not manage handles. The cache still amortizes: repeated calls
  /// with the same (points, kernel, opt) hit.
  [[nodiscard]] Matrix solve(const PointCloud& points, const Kernel& kernel,
                             ConstMatrixView b, SolverOptions opt = {});

  /// Snapshot the metrics surface (cheap; callable concurrently with
  /// traffic). Percentiles cover a sliding window of recent requests.
  [[nodiscard]] ServerStats stats() const;

  /// Drop every cached entry — resident AND demoted (outstanding
  /// FactorHandles keep theirs alive). Returns the total number of entries
  /// dropped. Only the resident ones count toward ServerStats::evictions;
  /// demoted entries were already counted when they left RAM. Mainly for
  /// tests and operational resets.
  std::size_t clear();

  /// The options this server runs with (env already resolved).
  [[nodiscard]] const ServerOptions& options() const noexcept { return opt_; }

 private:
  struct Cache;
  struct Metrics;

  [[nodiscard]] Matrix admit_one(const std::shared_ptr<FactorHandle::Entry>& e,
                                 ConstMatrixView b);
  /// The eviction loop (caller holds the cache mutex): demote-or-destroy
  /// least-recently-acquired entries until resident_bytes fits the budget,
  /// never touching `protect` (the newest or just-promoted entry).
  void shed_cache_locked(const FactorHandle::Entry* protect);
  void note_sweep(int width);
  void note_latency(double ms);

  ServerOptions opt_;
  std::unique_ptr<Cache> cache_;
  std::unique_ptr<Metrics> metrics_;
};

}  // namespace h2
