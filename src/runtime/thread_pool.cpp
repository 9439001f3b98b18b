#include "runtime/thread_pool.hpp"

#include <algorithm>

#include "util/env.hpp"

namespace h2 {

namespace {
thread_local int tl_worker_index = -1;
thread_local ThreadPool* tl_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(int n_threads, QueuePolicy /*policy*/) {
  if (n_threads < 1) n_threads = 1;
  lanes_.reserve(n_threads);
  for (int i = 0; i < n_threads; ++i) lanes_.push_back(std::make_unique<Lane>());
  workers_.reserve(n_threads);
  for (int i = 0; i < n_threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::heap_less(const Item& a, const Item& b) {
  if (a.priority != b.priority) return a.priority < b.priority;
  return a.seq > b.seq;  // equal priority: earlier submission pops first
}

void ThreadPool::submit(std::function<void()> task, double priority) {
  Item item{std::move(task), priority,
            seq_.fetch_add(1, std::memory_order_relaxed)};
  // pending up BEFORE the item is visible in any queue: a thief may pop and
  // finish the task the instant it is published, and its pending decrement
  // must never land before our increment (the count would go negative and
  // the thief's "state_ == 0" idle edge would fire early or not at all).
  state_.fetch_add(kPendingOne);
  const bool local = tl_pool == this;
  try {
    if (local) {
      // LIFO-local: a worker's freshly made-ready task goes on top of its
      // own deque, where its next pop (not a thief's) finds it.
      Lane& self = *lanes_[tl_worker_index];
      std::lock_guard<std::mutex> lk(self.m);
      self.deque.push_back(std::move(item));
    } else {
      std::lock_guard<std::mutex> lk(mutex_);
      heap_.push_back(std::move(item));
      std::push_heap(heap_.begin(), heap_.end(), heap_less);
    }
  } catch (...) {
    // Enqueue failed (allocation): no task will ever drain the count we
    // raised, and a leaked pending wedges wait_idle and the destructor
    // forever — roll it back before letting the exception out. If the
    // rollback itself drains the pool, deliver the idle edge exactly like
    // the last finishing worker would: a wait_idle caller that parked on
    // our transient increment has no one else to wake it.
    if (state_.fetch_sub(kPendingOne) == kPendingOne) {
      std::lock_guard<std::mutex> lk(mutex_);
      cv_idle_.notify_all();
    }
    throw;
  }
  if (sleepers_.load() > 0) {
    // A sleeper registered itself (under mutex_) before it could have seen
    // our pending increment, so the wakeup handoff is on us. When
    // sleepers_ == 0 the handoff is skipped entirely — every worker either
    // runs or will observe the increment before parking (both seq_cst) —
    // which keeps the saturated-pool fast path off the pool-global lock.
    if (local) {
      // Empty critical section: serializes this wakeup against a worker
      // between its predicate check and its park, closing the missed-wakeup
      // window. The shared-heap branch needs none — its publication already
      // ran under mutex_, which serializes against the sleeper by itself.
      std::lock_guard<std::mutex> lk(mutex_);
    }
    cv_work_.notify_one();
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lk(mutex_);
  // One load of the packed word — "queues drained AND workers idle" cannot
  // be assembled from counters read at different instants.
  cv_idle_.wait(lk, [this] { return state_.load() == 0; });
}

bool ThreadPool::try_pop_local(int index, Item& out) {
  Lane& self = *lanes_[index];
  std::lock_guard<std::mutex> lk(self.m);
  if (self.deque.empty()) return false;
  out = std::move(self.deque.back());
  self.deque.pop_back();
  // pending→active in one transition, under the queue's lock: outside the
  // lock pending always matches what a scan can still find, and the pair
  // never passes through (0, 0) between pop and execution.
  state_.fetch_add(kActiveOne - kPendingOne);
  return true;
}

bool ThreadPool::try_pop_shared(Item& out) {
  std::lock_guard<std::mutex> lk(mutex_);
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), heap_less);
  out = std::move(heap_.back());
  heap_.pop_back();
  state_.fetch_add(kActiveOne - kPendingOne);
  return true;
}

bool ThreadPool::try_steal(int index, std::uint32_t& rng, Item& out) {
  const int n = static_cast<int>(lanes_.size());
  if (n <= 1) return false;
  // Randomized start, then a full sweep: a task sitting in some deque cannot
  // be missed by an idle worker, only raced for.
  rng ^= rng << 13;
  rng ^= rng >> 17;
  rng ^= rng << 5;
  const int start = static_cast<int>(rng % static_cast<std::uint32_t>(n));
  for (int k = 0; k < n; ++k) {
    const int v = (start + k) % n;
    if (v == index) continue;
    Lane& victim = *lanes_[v];
    std::lock_guard<std::mutex> lk(victim.m);
    if (victim.deque.empty()) continue;
    // FIFO-steal: the victim's OLDEST task — the breadth end of its deque.
    out = std::move(victim.deque.front());
    victim.deque.pop_front();
    state_.fetch_add(kActiveOne - kPendingOne);
    return true;
  }
  return false;
}

void ThreadPool::worker_loop(int index) {
  tl_worker_index = index;
  tl_pool = this;
  Lane& self = *lanes_[index];
  std::uint32_t rng = 0x9e3779b9u * static_cast<std::uint32_t>(index + 1) | 1u;
  int misses = 0;  // consecutive scans that found nothing
  for (;;) {
    Item item;
    bool stolen = false;
    bool got = try_pop_local(index, item) || try_pop_shared(item);
    if (!got) got = stolen = try_steal(index, rng, item);
    if (!got) {
      {
        std::unique_lock<std::mutex> lk(mutex_);
        sleepers_.fetch_add(1);
        cv_work_.wait(
            lk, [this] { return stop_ || (state_.load() >> 32) != 0; });
        sleepers_.fetch_sub(1);
        if (stop_ && (state_.load() >> 32) == 0) return;
      }
      // Pending > 0 means work exists somewhere — but it can be a task whose
      // count was raised and whose publication hasn't landed yet, in which
      // case the wait above returns immediately and the rescan misses again.
      // Yield on repeated misses so that window is a bounded backoff, not a
      // lock-hammering spin.
      if (++misses > 1) std::this_thread::yield();
      continue;  // re-scan the queues
    }
    misses = 0;
    // The pop already moved this task pending→active, so wait_idle can never
    // observe it as (no queue, no worker) idle while we run it.
    self.executed.fetch_add(1, std::memory_order_relaxed);
    if (stolen) self.stolen.fetch_add(1, std::memory_order_relaxed);
    item.fn();
    if (state_.fetch_sub(kActiveOne) == kActiveOne) {
      // Last task out of a fully drained pool: hand the idle edge to
      // wait_idle through the cv's mutex (the empty-section pattern again —
      // the waiter either re-checks after us or is already parked).
      std::lock_guard<std::mutex> lk(mutex_);
      cv_idle_.notify_all();
    }
  }
}

std::vector<ThreadPool::WorkerCounters> ThreadPool::worker_counters() const {
  std::vector<WorkerCounters> out(lanes_.size());
  for (std::size_t i = 0; i < lanes_.size(); ++i)
    out[i] = {lanes_[i]->executed.load(std::memory_order_acquire),
              lanes_[i]->stolen.load(std::memory_order_acquire)};
  return out;
}

int ThreadPool::worker_index() { return tl_worker_index; }

ThreadPool* ThreadPool::current() { return tl_pool; }

int ThreadPool::env_threads() {
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  // 0 doubles as the "unset" sentinel: zero, negative and garbage values are
  // all invalid, and all of them fall back to the hardware count.
  const long v = env::get_int("H2_THREADS", 0);
  if (v < 1) return hw;
  return static_cast<int>(std::min(v, 1024L));
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(env_threads());
  return pool;
}

}  // namespace h2
