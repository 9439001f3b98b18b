#include "server/server.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <list>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "util/env.hpp"

namespace h2 {

namespace {

// ---------------------------------------------------------------------------
// Cache keying. The key must capture exactly what determines the solution
// bits: the geometry, the kernel (identity AND parameters — two Laplace
// kernels with different regularization must not collide, so the name is
// backed by probed evaluations), and the numerics-relevant options.
// Execution knobs (executor, workers, pools) are deliberately
// excluded: the solve is bitwise identical across them by construction.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_bytes(std::uint64_t& h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= kFnvPrime;
  }
}

template <typename T>
void fnv_pod(std::uint64_t& h, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  fnv_bytes(h, &v, sizeof(v));
}

std::uint64_t digest_points(const PointCloud& pts) {
  std::uint64_t h = kFnvOffset;
  fnv_pod(h, pts.size());
  for (const Point& p : pts) {
    fnv_pod(h, p.x);
    fnv_pod(h, p.y);
    fnv_pod(h, p.z);
  }
  return h;
}

std::uint64_t digest_kernel(const Kernel& kernel, const PointCloud& pts) {
  // The kernel interface exposes no parameters, so probe it: evaluate at a
  // few deterministic point pairs of THIS cloud and hash the values. Any
  // parameter that changes the assembled matrix changes some evaluation;
  // pairs are spread across the cloud with a fixed stride walk so clustered
  // duplicates cannot mask the probe.
  std::uint64_t h = kFnvOffset;
  const std::size_t n = pts.size();
  if (n == 0) return h;
  std::size_t i = 0;
  for (int probe = 0; probe < 16; ++probe) {
    const std::size_t j = (i * 2654435761ULL + 97) % n;
    const double v = kernel.eval(pts[i], pts[j]);
    fnv_pod(h, v);
    i = (i + n / 17 + 1) % n;
  }
  return h;
}

std::uint64_t digest_options(const SolverOptions& o) {
  std::uint64_t h = kFnvOffset;
  fnv_pod(h, o.structure);
  fnv_pod(h, o.leaf_size);
  fnv_pod(h, o.partitioner);
  fnv_pod(h, o.seed);
  fnv_pod(h, o.eta);
  fnv_pod(h, o.tol);
  fnv_pod(h, o.build_tol_factor);
  fnv_pod(h, o.max_rank);
  fnv_pod(h, o.mode);
  fnv_pod(h, o.fill_tol_factor);
  fnv_pod(h, o.fillin_augmentation);
  fnv_pod(h, o.width_stable_solve);
  fnv_pod(h, o.precision);
  fnv_pod(h, o.refine_tol);
  fnv_pod(h, o.max_refine_iters);
  return h;
}

struct CacheKey {
  std::uint64_t points = 0;
  std::uint64_t kernel_probe = 0;
  std::uint64_t options = 0;
  std::string kernel_name;

  bool operator==(const CacheKey& o) const {
    return points == o.points && kernel_probe == o.kernel_probe &&
           options == o.options && kernel_name == o.kernel_name;
  }
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    std::uint64_t h = kFnvOffset;
    fnv_pod(h, k.points);
    fnv_pod(h, k.kernel_probe);
    fnv_pod(h, k.options);
    fnv_bytes(h, k.kernel_name.data(), k.kernel_name.size());
    return static_cast<std::size_t>(h);
  }
};

std::uint64_t footprint_bytes(const Solver& s) {
  // ULV backends report their persistent factor exactly (the bytes still
  // live when the factorization finished). BLR/HODLR do not run through
  // blockmem; estimate: n x leaf dense diagonal plus 2 * rank coupling
  // columns per point — the documented heuristic in docs/SERVER.md.
  if (const UlvStats* st = s.ulv_stats(); st != nullptr && st->final_block_bytes > 0)
    return st->final_block_bytes;
  const auto n = static_cast<std::uint64_t>(s.n());
  const auto width = static_cast<std::uint64_t>(
      std::max(1, 2 * s.max_rank_used()) + 128);
  return std::max<std::uint64_t>(n * width * sizeof(double), 1);
}

}  // namespace

// ---------------------------------------------------------------------------
// Cache entry: one factorization plus its build gate and admission queue.
// Entries are shared_ptr-owned by the cache AND by every FactorHandle, so
// eviction (dropping the cache's reference) never invalidates a client.
// ---------------------------------------------------------------------------

struct Server::FactorHandle::Entry {
  // Build gate (single-flight): losers of the acquire race block on `cv`
  // until `ready`; a failed build sets `error` and is removed from the map.
  std::mutex build_mu;
  std::condition_variable build_cv;
  bool ready = false;
  std::exception_ptr error;

  // Immutable once `ready`.
  std::optional<Solver> solver;
  std::uint64_t bytes = 0;
  bool coalesce_ok = false;  ///< admission batching applies (see Server ctor)
  /// True while the entry lives in the spill tier: its factor blocks are on
  /// disk (Solver::demote_to_disk), it is in the map but not the LRU, and
  /// its bytes are off resident_bytes. Guarded by Cache::mu. Held handles
  /// may still solve a demoted entry (each sweep demand-faults its blocks);
  /// the next acquire hit promotes it back wholesale.
  bool demoted = false;

  // Admission queue (one per factorization — requests only coalesce with
  // requests for the SAME bits).
  struct Waiter {
    const double* src = nullptr;  ///< caller's n x 1 column
    Matrix x;                     ///< the waiter's solution
    bool done = false;
    std::exception_ptr err;
  };
  std::mutex mu;
  std::condition_variable cv;
  bool busy = false;             ///< a sweep is in flight on this entry
  std::deque<Waiter*> queue;     ///< parked single-RHS requests, FIFO
};

// ---------------------------------------------------------------------------
// Cache + metrics state.
// ---------------------------------------------------------------------------

struct Server::Cache {
  using Entry = Server::FactorHandle::Entry;
  std::mutex mu;
  std::unordered_map<CacheKey, std::shared_ptr<Entry>, CacheKeyHash> map;
  std::list<CacheKey> lru;  ///< front = most recently acquired; demoted entries leave it
  std::uint64_t resident_bytes = 0;
  std::uint64_t demoted_entries = 0;  ///< entries in the map with demoted set
  std::uint64_t demoted_bytes = 0;    ///< bytes those entries held when resident

  void touch(const CacheKey& k) {
    // O(entries) walk; the cache holds few, large objects by design.
    auto it = std::find(lru.begin(), lru.end(), k);
    if (it != lru.end()) lru.splice(lru.begin(), lru, it);
  }
};

struct Server::Metrics {
  static constexpr std::size_t kWindow = 4096;  ///< latency sliding window
  mutable std::mutex mu;
  std::uint64_t hits = 0, misses = 0, evictions = 0;
  std::uint64_t demotions = 0, promotions = 0;
  std::uint64_t requests = 0, rhs_served = 0, backend_solves = 0;
  std::uint64_t coalesced_requests = 0;
  std::uint64_t queue_depth = 0;
  std::array<std::uint64_t, ServerStats::kBatchBuckets> batch_hist{};
  std::vector<double> latency_ms;  ///< ring buffer, kWindow capacity
  std::size_t latency_next = 0;
};

namespace {

int batch_bucket(int width) {
  if (width <= 1) return 0;
  if (width <= 2) return 1;
  if (width <= 4) return 2;
  if (width <= 8) return 3;
  if (width <= 16) return 4;
  if (width <= 32) return 5;
  return 6;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * (v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace

// ---------------------------------------------------------------------------
// Server.
// ---------------------------------------------------------------------------

std::uint64_t server_default_cache_bytes() {
  return static_cast<std::uint64_t>(
             std::max(1L, env::get_int("H2_SERVER_CACHE_MB", 256))) *
         (1ULL << 20);
}

long server_default_batch_us() {
  return std::max(0L, env::get_int("H2_SERVER_BATCH_US", 1000));
}

int server_default_max_batch() {
  return static_cast<int>(std::max(1L, env::get_int("H2_SERVER_MAX_BATCH", 64)));
}

std::string server_default_spill_dir() {
  return env::get_string("H2_SPILL_DIR", std::string());
}

void ServerOptions::validate() const {
  if (batch_deadline_us < 0)
    throw std::invalid_argument(
        "ServerOptions: batch_deadline_us must be >= 0 (got " +
        std::to_string(batch_deadline_us) + ")");
  if (max_batch < 1)
    throw std::invalid_argument("ServerOptions: max_batch must be >= 1 (got " +
                                std::to_string(max_batch) + ")");
  if (cache_budget_bytes == 0)
    throw std::invalid_argument(
        "ServerOptions: cache_budget_bytes must be > 0; the budget is a "
        "high-water mark, not a way to disable caching");
  if (!spill_dir.empty() && ::access(spill_dir.c_str(), W_OK) != 0)
    throw std::invalid_argument(
        "ServerOptions: spill_dir must name an existing writable directory "
        "(got '" + spill_dir +
        "'); demoted factorizations are spilled under it (H2_SPILL_DIR)");
}

Server::Server(ServerOptions opt)
    : opt_(opt),
      cache_(std::make_unique<Cache>()),
      metrics_(std::make_unique<Metrics>()) {
  opt_.validate();
  metrics_->latency_ms.reserve(Metrics::kWindow);
}

Server::~Server() = default;

const Solver& Server::FactorHandle::solver() const {
  if (e_ == nullptr || !e_->solver.has_value())
    throw std::logic_error("FactorHandle: empty handle");
  return *e_->solver;
}

std::uint64_t Server::FactorHandle::resident_bytes() const {
  if (e_ == nullptr) throw std::logic_error("FactorHandle: empty handle");
  return e_->bytes;
}

Server::FactorHandle Server::acquire(const PointCloud& points,
                                     const Kernel& kernel, SolverOptions opt) {
  opt.width_stable_solve = true;
  CacheKey key{digest_points(points), digest_kernel(kernel, points),
               digest_options(opt), kernel.name()};

  std::shared_ptr<FactorHandle::Entry> entry;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lk(cache_->mu);
    auto it = cache_->map.find(key);
    if (it != cache_->map.end()) {
      entry = it->second;
      if (entry->demoted) {
        // Promotion (single-flight by construction: the cache mutex is held
        // for the whole fault-in, so concurrent acquires of this key queue
        // behind it and find the entry already resident). A failed
        // promotion drops the entry — the next acquire rebuilds from
        // scratch rather than serving a half-read factor.
        try {
          entry->solver->promote();
        } catch (...) {
          cache_->demoted_entries -= 1;
          cache_->demoted_bytes -= entry->bytes;
          cache_->map.erase(it);
          throw;
        }
        entry->demoted = false;
        cache_->demoted_entries -= 1;
        cache_->demoted_bytes -= entry->bytes;
        cache_->lru.push_front(key);
        cache_->resident_bytes += entry->bytes;
        {
          std::lock_guard<std::mutex> mlk(metrics_->mu);
          ++metrics_->promotions;
          ++metrics_->hits;
        }
        // The promoted bytes may push the cache back over budget; shed
        // older entries, never the one just promoted.
        shed_cache_locked(entry.get());
      } else {
        cache_->touch(key);
        std::lock_guard<std::mutex> mlk(metrics_->mu);
        ++metrics_->hits;
      }
    } else {
      entry = std::make_shared<FactorHandle::Entry>();
      cache_->map.emplace(key, entry);
      cache_->lru.push_front(key);
      builder = true;
      std::lock_guard<std::mutex> mlk(metrics_->mu);
      ++metrics_->misses;
    }
  }

  if (builder) {
    // Build OUTSIDE the cache lock: other keys keep hitting while this one
    // factorizes; same-key acquires block on the entry's build gate only.
    try {
      Solver s = Solver::build(points, kernel, opt);
      const std::uint64_t bytes = footprint_bytes(s);
      const bool is_ulv = s.structure() == SolverStructure::H2 ||
                          s.structure() == SolverStructure::HSS;
      {
        std::lock_guard<std::mutex> lk(entry->build_mu);
        entry->solver.emplace(std::move(s));
        entry->bytes = bytes;
        // Coalescing needs the width-stable bitwise contract; only the ULV
        // solve provides it.
        entry->coalesce_ok = opt_.coalesce && is_ulv;
        entry->ready = true;
      }
      entry->build_cv.notify_all();

      std::lock_guard<std::mutex> lk(cache_->mu);
      cache_->resident_bytes += bytes;
      shed_cache_locked(entry.get());
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(entry->build_mu);
        entry->error = std::current_exception();
        entry->ready = true;
      }
      entry->build_cv.notify_all();
      {
        // Failed builds leave no entry behind: the next acquire retries.
        std::lock_guard<std::mutex> lk(cache_->mu);
        cache_->map.erase(key);
        cache_->lru.remove(key);
      }
      throw;
    }
  } else {
    std::unique_lock<std::mutex> lk(entry->build_mu);
    entry->build_cv.wait(lk, [&] { return entry->ready; });
    if (entry->error) std::rethrow_exception(entry->error);
  }
  return FactorHandle(entry);
}

void Server::shed_cache_locked(const FactorHandle::Entry* protect) {
  // Evict least-recently-acquired READY entries until we fit — never
  // `protect` (the newest or just-promoted entry), so one over-budget
  // factorization still serves (the budget acts as a high-water mark).
  //
  // With a spill directory configured, eviction DEMOTES instead of
  // destroying: the victim's factor blocks move to spill files
  // (Solver::demote_to_disk blocks until the entry's in-flight solves
  // retire, then drains its store to disk) and the entry stays in the map —
  // off the LRU and the resident books, but promotable on the next hit for
  // the price of a disk read instead of a refactorization. Backends with no
  // disk tier (BLR/HODLR, demote_to_disk returns false) and demotion
  // failures fall back to the legacy destroy-on-evict; either way handles
  // and in-flight solves keep the entry alive.
  while (cache_->resident_bytes > opt_.cache_budget_bytes &&
         cache_->lru.size() > 1) {
    bool evicted = false;
    for (auto it = std::prev(cache_->lru.end());; --it) {
      auto mit = cache_->map.find(*it);
      if (mit->second.get() == protect) {
        if (it == cache_->lru.begin()) break;
        continue;
      }
      bool victim_ready;
      {
        std::lock_guard<std::mutex> block(mit->second->build_mu);
        victim_ready = mit->second->ready;
      }
      if (victim_ready) {
        const std::shared_ptr<FactorHandle::Entry> victim = mit->second;
        bool demoted = false;
        if (!opt_.spill_dir.empty()) {
          try {
            demoted = victim->solver->demote_to_disk(opt_.spill_dir);
          } catch (...) {
            demoted = false;  // spill failure: destroy instead, never serve
          }                   // a half-written factor
        }
        cache_->resident_bytes -= victim->bytes;
        cache_->lru.erase(it);
        if (demoted) {
          victim->demoted = true;
          cache_->demoted_entries += 1;
          cache_->demoted_bytes += victim->bytes;
        } else {
          cache_->map.erase(mit);
        }
        {
          std::lock_guard<std::mutex> mlk(metrics_->mu);
          ++metrics_->evictions;
          if (demoted) ++metrics_->demotions;
        }
        evicted = true;
        break;
      }
      if (it == cache_->lru.begin()) break;
    }
    if (!evicted) break;  // nothing evictable (everything building/newest)
  }
}

void Server::note_sweep(int width) {
  std::lock_guard<std::mutex> lk(metrics_->mu);
  ++metrics_->backend_solves;
  ++metrics_->batch_hist[static_cast<std::size_t>(batch_bucket(width))];
  if (width > 1) metrics_->coalesced_requests += static_cast<std::uint64_t>(width);
}

void Server::note_latency(double ms) {
  std::lock_guard<std::mutex> lk(metrics_->mu);
  if (metrics_->latency_ms.size() < Metrics::kWindow) {
    metrics_->latency_ms.push_back(ms);
  } else {
    metrics_->latency_ms[metrics_->latency_next] = ms;
    metrics_->latency_next = (metrics_->latency_next + 1) % Metrics::kWindow;
  }
}

Matrix Server::admit_one(const std::shared_ptr<FactorHandle::Entry>& e,
                         ConstMatrixView b) {
  // Single-RHS admission: idle entry -> solve now (latency mode); busy
  // entry -> park. When the in-flight sweep retires, the front parked
  // request becomes the LEADER: it waits up to the deadline (or max_batch)
  // for contemporaries, then sweeps the whole queue as one blocked solve.
  using clock = std::chrono::steady_clock;
  FactorHandle::Entry::Waiter w;
  w.src = b.data();

  std::unique_lock<std::mutex> lk(e->mu);
  if (!e->busy && e->queue.empty()) {
    // Idle entry: pure latency mode — solve right now, no queueing. (An
    // entry with parked requests is never overtaken: the newcomer parks
    // behind them instead, keeping admission FIFO.)
    e->busy = true;
    lk.unlock();
    Matrix x;
    std::exception_ptr err;
    try {
      x = e->solver->solve(b);
    } catch (...) {
      err = std::current_exception();
    }
    note_sweep(1);
    lk.lock();
    e->busy = false;
    const bool wake = !e->queue.empty();
    lk.unlock();
    if (wake) e->cv.notify_all();
    if (err) std::rethrow_exception(err);
    return x;
  }

  e->queue.push_back(&w);
  {
    std::lock_guard<std::mutex> mlk(metrics_->mu);
    ++metrics_->queue_depth;
  }
  e->cv.notify_all();  // a collecting leader counts queue growth

  for (;;) {
    e->cv.wait(lk, [&] {
      return w.done || (!e->busy && !e->queue.empty() && e->queue.front() == &w);
    });
    if (w.done) break;

    // Leader: collect up to the deadline, then sweep.
    e->busy = true;
    const auto deadline =
        clock::now() + std::chrono::microseconds(opt_.batch_deadline_us);
    while (static_cast<int>(e->queue.size()) < opt_.max_batch) {
      if (e->cv.wait_until(lk, deadline) == std::cv_status::timeout) break;
    }
    const int take =
        std::min<int>(opt_.max_batch, static_cast<int>(e->queue.size()));
    std::vector<FactorHandle::Entry::Waiter*> batch(
        e->queue.begin(), e->queue.begin() + take);
    e->queue.erase(e->queue.begin(), e->queue.begin() + take);
    {
      std::lock_guard<std::mutex> mlk(metrics_->mu);
      metrics_->queue_depth -= static_cast<std::uint64_t>(take);
    }
    lk.unlock();

    const int n = e->solver->n();
    std::exception_ptr err;
    try {
      Matrix rhs(n, take);
      for (int j = 0; j < take; ++j)
        std::memcpy(rhs.view().col(j), batch[static_cast<std::size_t>(j)]->src,
                    sizeof(double) * static_cast<std::size_t>(n));
      const Matrix x = e->solver->solve(rhs);
      for (int j = 0; j < take; ++j) {
        Matrix& xj = batch[static_cast<std::size_t>(j)]->x;
        xj = Matrix(n, 1);
        std::memcpy(xj.data(), x.view().col(j),
                    sizeof(double) * static_cast<std::size_t>(n));
      }
    } catch (...) {
      err = std::current_exception();  // fans out to the whole batch
    }
    note_sweep(take);

    lk.lock();
    for (auto* m : batch) {
      m->err = err;
      m->done = true;
    }
    e->busy = false;
    lk.unlock();
    e->cv.notify_all();
    lk.lock();
  }
  lk.unlock();
  if (w.err) std::rethrow_exception(w.err);
  return std::move(w.x);
}

Matrix Server::solve(const FactorHandle& f, ConstMatrixView b) {
  if (!f.valid()) throw std::logic_error("Server::solve: empty FactorHandle");
  const auto& e = f.e_;
  {
    std::lock_guard<std::mutex> lk(metrics_->mu);
    ++metrics_->requests;
    metrics_->rhs_served += static_cast<std::uint64_t>(b.cols());
  }
  const auto t0 = std::chrono::steady_clock::now();
  Matrix x;
  if (b.cols() == 1 && e->coalesce_ok) {
    x = admit_one(e, b);
  } else {
    // Multi-column requests are already blocked sweeps; coalescing them
    // further would only add queueing. Solver::solve is concurrency-safe,
    // so they bypass the admission queue entirely.
    x = e->solver->solve(b);
    note_sweep(b.cols());
  }
  note_latency(std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count());
  return x;
}

Matrix Server::solve(const PointCloud& points, const Kernel& kernel,
                     ConstMatrixView b, SolverOptions opt) {
  return solve(acquire(points, kernel, std::move(opt)), b);
}

ServerStats Server::stats() const {
  ServerStats s;
  {
    std::lock_guard<std::mutex> lk(cache_->mu);
    // `entries` counts RESIDENT factorizations; demoted ones live in the
    // map (so hits still find them) but report through the demoted gauges.
    s.entries = cache_->map.size() - cache_->demoted_entries;
    s.resident_bytes = cache_->resident_bytes;
    s.demoted_entries = cache_->demoted_entries;
    s.demoted_bytes = cache_->demoted_bytes;
  }
  s.budget_bytes = opt_.cache_budget_bytes;
  std::lock_guard<std::mutex> lk(metrics_->mu);
  s.hits = metrics_->hits;
  s.misses = metrics_->misses;
  s.evictions = metrics_->evictions;
  s.demotions = metrics_->demotions;
  s.promotions = metrics_->promotions;
  s.requests = metrics_->requests;
  s.rhs_served = metrics_->rhs_served;
  s.backend_solves = metrics_->backend_solves;
  s.coalesced_requests = metrics_->coalesced_requests;
  s.batch_hist = metrics_->batch_hist;
  s.queue_depth = metrics_->queue_depth;
  s.p50_ms = percentile(metrics_->latency_ms, 0.50);
  s.p99_ms = percentile(metrics_->latency_ms, 0.99);
  return s;
}

std::size_t Server::clear() {
  std::lock_guard<std::mutex> lk(cache_->mu);
  const std::size_t n = cache_->map.size();
  // Demoted entries are dropped too, but only the resident ones count as
  // evictions here — the demoted ones were already counted when demoted.
  const std::size_t resident = cache_->lru.size();
  cache_->map.clear();
  cache_->lru.clear();
  cache_->resident_bytes = 0;
  cache_->demoted_entries = 0;
  cache_->demoted_bytes = 0;
  std::lock_guard<std::mutex> mlk(metrics_->mu);
  metrics_->evictions += resident;
  return n;
}

}  // namespace h2
