#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace h2 {

/// Fixed-size work-stealing worker pool: one deque per worker. A worker
/// pushes and pops its own deque at the BACK (LIFO — the task it just made
/// ready is the one whose inputs are still hot, so a block row's
/// fill→basis→project chain tends to stay on one worker), while idle
/// workers steal from a random victim's FRONT (FIFO — the oldest task is
/// the root of the largest untouched subtree, so steals spread breadth, not
/// leaves). Submissions from non-worker threads land in a shared priority
/// heap that every worker also drains.
///
/// The `priority` argument of submit() orders the shared queue only; a
/// worker's own deque is ordered by push order (callers that care — the
/// TaskGraph executor — push ascending so the highest priority pops first).
class ThreadPool {
 public:
  /// The one ready-queue discipline. Exists only for the
  /// `ThreadPool(n, o.ulv_options().queue_policy())` call site in
  /// perfbench/perfbench.cpp; goes away with the next change to perfbench.
  enum class QueuePolicy { WorkSteal };

  /// Per-worker execution counters since pool construction. `stolen` counts
  /// the subset of `executed` that was taken from another worker's deque —
  /// the direct measure of how much the stealing path actually runs.
  struct WorkerCounters {
    std::uint64_t executed = 0;
    std::uint64_t stolen = 0;
  };

  explicit ThreadPool(int n_threads,
                      QueuePolicy /*policy*/ = QueuePolicy::WorkSteal);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one task. `priority` (higher runs earlier) orders the shared
  /// queue; ties keep submission order. Calls from a worker of this pool
  /// push to that worker's own deque instead (LIFO-local; `priority` is
  /// then ignored).
  void submit(std::function<void()> task, double priority = 0.0);

  /// Block until every queue is drained and every worker is idle.
  void wait_idle();

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Snapshot of the per-worker counters (index = worker lane). Counters are
  /// cumulative over the pool's lifetime; executors that need per-run values
  /// (TaskGraph) difference two snapshots.
  [[nodiscard]] std::vector<WorkerCounters> worker_counters() const;

  /// Index of the calling thread within its owning pool ([0, size)), or -1
  /// when called from a thread no pool owns. Lets executors (TaskGraph) tag
  /// trace records with a stable per-worker lane without handing out ad-hoc
  /// ids.
  static int worker_index();

  /// The pool that owns the calling thread, or nullptr for non-pool threads.
  /// Executors use this to refuse a pool they are already running on — a
  /// worker that submits work to its own pool and then blocks on it
  /// deadlocks once all workers do the same.
  static ThreadPool* current();

  /// Worker count implied by the environment: H2_THREADS when set to a
  /// positive integer (clamped to 1024), hardware concurrency otherwise.
  /// Invalid values — zero, negative, or not a plain integer — are all
  /// rejected the same way: the variable is ignored and the hardware
  /// fallback applies. Factored out of global() so the parsing is
  /// testable — global() is initialized only once.
  static int env_threads();

  /// Process-wide pool sized by env_threads().
  static ThreadPool& global();

 private:
  /// A queued task. `seq` breaks priority ties in submission order.
  struct Item {
    std::function<void()> fn;
    double priority = 0.0;
    std::uint64_t seq = 0;
  };

  /// One worker's deque + counters. Heap-allocated so lane addresses stay
  /// stable while thieves hold references.
  struct Lane {
    std::mutex m;
    std::deque<Item> deque;
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> stolen{0};
  };

  static bool heap_less(const Item& a, const Item& b);
  void worker_loop(int index);
  bool try_pop_local(int index, Item& out);
  bool try_pop_shared(Item& out);
  bool try_steal(int index, std::uint32_t& rng, Item& out);

  std::vector<std::unique_ptr<Lane>> lanes_;

  std::mutex mutex_;  ///< guards heap_ and stop_; anchors both cvs
  std::condition_variable cv_work_;
  std::condition_variable cv_idle_;
  std::vector<Item> heap_;  ///< shared queue as a binary max-heap
  std::atomic<std::uint64_t> seq_{0};
  /// Pool occupancy packed into ONE atomic word: tasks in any queue
  /// (shared heap or worker deques) in the high 32 bits ("pending"),
  /// tasks currently executing in the low 32 bits ("active"). One word,
  /// not two atomics: wait_idle's "all drained AND all idle" predicate is
  /// a single load (state_ == 0), so it can never pair a stale pending
  /// with a fresh active. Not mutex-guarded: the local-deque fast path
  /// must not cross the pool-global lock per task —
  /// submitters and finishing workers hand off to sleepers through the
  /// empty-critical-section pattern (state change, then lock/unlock
  /// mutex_, then notify), so a waiter either sees the new value or is
  /// already inside wait() when the notify lands. Invariants: pending is
  /// raised BEFORE the item is published to a queue (a thief finishing
  /// the task early must not drive the count negative), and a pop moves
  /// pending→active in one fetch_add under the queue's lock (the pair
  /// never transits through (0, 0) mid-handoff).
  std::atomic<std::uint64_t> state_{0};
  static constexpr std::uint64_t kActiveOne = 1;
  static constexpr std::uint64_t kPendingOne = std::uint64_t{1} << 32;
  /// Workers parked (or about to park) in cv_work_.wait — raised under
  /// mutex_ BEFORE the predicate's pending check. submit() skips the
  /// lock+notify handoff when this is zero: with both counters seq_cst,
  /// any worker that missed the pending increment has already registered
  /// here, so a submitter sees either no sleepers (all workers will rescan
  /// on their own) or takes the handoff path. In a saturated pool that
  /// keeps submission entirely off the pool-global lock.
  std::atomic<int> sleepers_{0};
  bool stop_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace h2
