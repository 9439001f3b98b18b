#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/block_pool.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/thread_pool.hpp"

namespace h2 {
namespace {

/// Scoped H2_THREADS override (restores the previous value on destruction).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = (old != nullptr);
    if (value == nullptr)
      unsetenv(name);
    else
      setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_)
      setenv(name_, saved_.c_str(), 1);
    else
      unsetenv(name_);
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPool) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(TaskGraph, RespectsDependencies) {
  TaskGraph g;
  std::vector<int> order;
  std::mutex m;
  auto push = [&](int v) {
    std::lock_guard<std::mutex> lk(m);
    order.push_back(v);
  };
  const TaskId a = g.add_task([&] { push(0); }, "a");
  const TaskId b = g.add_task([&] { push(1); }, "b");
  const TaskId c = g.add_task([&] { push(2); }, "c");
  g.add_dependency(a, b);
  g.add_dependency(b, c);
  const ExecStats stats = g.execute(4);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(stats.records.size(), 3u);
  EXPECT_GE(stats.wall_seconds, 0.0);
}

TEST(TaskGraph, DiamondDependency) {
  TaskGraph g;
  std::atomic<int> stage{0};
  const TaskId src = g.add_task([&] { stage = 1; });
  std::vector<TaskId> mids;
  std::atomic<int> mid_seen_src{0};
  for (int i = 0; i < 8; ++i) {
    mids.push_back(g.add_task([&] {
      if (stage.load() >= 1) ++mid_seen_src;
    }));
    g.add_dependency(src, mids.back());
  }
  std::atomic<bool> sink_ok{false};
  const TaskId sink = g.add_task([&] { sink_ok = (mid_seen_src.load() == 8); });
  for (const TaskId m : mids) g.add_dependency(m, sink);
  g.execute(4);
  EXPECT_TRUE(sink_ok.load());
}

TEST(TaskGraph, TraceRecordsAreComplete) {
  TaskGraph g;
  for (int i = 0; i < 10; ++i) g.add_task([] {}, "work");
  const ExecStats stats = g.execute(2);
  for (const auto& r : stats.records) {
    EXPECT_GE(r.worker, 0);
    EXPECT_LE(r.t_start, r.t_end);
    EXPECT_EQ(r.label, "work");
  }
  EXPECT_GE(stats.overhead_fraction(), 0.0);
  EXPECT_LE(stats.overhead_fraction(), 1.0);
}

TEST(TaskGraph, ExecuteTwiceThrows) {
  TaskGraph g;
  g.add_task([] {});
  g.execute(1);
  EXPECT_THROW(g.execute(1), std::logic_error);
}

TEST(TaskGraph, EmptyGraphCompletes) {
  TaskGraph g;
  const ExecStats stats = g.execute(2);
  EXPECT_EQ(stats.records.size(), 0u);
}

TEST(TaskGraph, ManyIndependentTasksAllRun) {
  TaskGraph g;
  std::vector<std::atomic<int>> hits(200);
  for (int i = 0; i < 200; ++i)
    g.add_task([&hits, i] { ++hits[i]; });
  g.execute(8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskGraph, TraceCsvWritable) {
  TaskGraph g;
  g.add_task([] {}, "x");
  const ExecStats stats = g.execute(1);
  const std::string path = ::testing::TempDir() + "/trace_test.csv";
  EXPECT_TRUE(TaskGraph::write_trace_csv(stats, path));
}

TEST(TaskGraph, CycleErrorNamesStuckTasks) {
  TaskGraph g;
  const TaskId a = g.add_task([] {}, "alpha");
  const TaskId b = g.add_task([] {}, "beta");
  g.add_task([] {}, "free");
  g.add_dependency(a, b);
  g.add_dependency(b, a);
  try {
    g.execute(2);
    FAIL() << "cycle not detected";
  } catch (const std::logic_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("2 of 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("alpha"), std::string::npos) << msg;
    EXPECT_NE(msg.find("beta"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("free"), std::string::npos) << msg;
  }
}

TEST(TaskGraph, CycleDetectedBeforeAnyTaskRuns) {
  TaskGraph g;
  std::atomic<int> ran{0};
  const TaskId a = g.add_task([&] { ++ran; }, "a");
  const TaskId b = g.add_task([&] { ++ran; }, "b");
  g.add_task([&] { ++ran; }, "independent");
  g.add_dependency(a, b);
  g.add_dependency(b, a);
  EXPECT_THROW(g.execute(2), std::logic_error);
  EXPECT_EQ(ran.load(), 0);
}

TEST(TaskGraph, TaskExceptionDrainsTheGraphAndRethrowsOnTheCaller) {
  // A throwing task must not terminate its worker: the graph drains (later
  // bodies skipped, successors still released) and the FIRST exception
  // surfaces from execute() on the calling thread.
  for (const int workers : {1, 4}) {
    TaskGraph g;
    std::atomic<int> ran{0};
    const TaskId root = g.add_task([&] { ++ran; }, "root");
    const TaskId bad =
        g.add_task([] { throw std::runtime_error("boom"); }, "bad");
    const TaskId after = g.add_task([&] { ++ran; }, "after");
    g.add_dependency(root, bad);
    g.add_dependency(bad, after);
    for (int i = 0; i < 50; ++i) {
      const TaskId t = g.add_task([&] { ++ran; });
      g.add_dependency(bad, t);
    }
    ThreadPool pool(workers);
    try {
      (void)g.execute(pool);
      FAIL() << "task exception swallowed";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom");
    }
    EXPECT_EQ(ran.load(), 1) << "bodies after the failure must be skipped";
    // The pool survives and stays usable.
    std::atomic<bool> ok{false};
    pool.submit([&] { ok = true; });
    pool.wait_idle();
    EXPECT_TRUE(ok.load());
  }
}

TEST(TaskGraph, RunInlineFollowsTopologicalOrderOnTheCaller) {
  TaskGraph g;
  std::vector<int> order;
  const std::thread::id caller = std::this_thread::get_id();
  bool on_caller = true;
  const TaskId c = g.add_task([&] { order.push_back(2); });
  const TaskId a = g.add_task([&] { order.push_back(0); });
  const TaskId b = g.add_task([&] {
    order.push_back(1);
    on_caller = on_caller && std::this_thread::get_id() == caller;
  });
  g.add_dependency(a, b);
  g.add_dependency(b, c);
  g.run_inline();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(on_caller);
  EXPECT_THROW(g.run_inline(), std::logic_error);  // one-shot, like execute
}

TEST(TaskGraph, ExecutesOnBorrowedPool) {
  // The pool-backed executor must not spawn its own workers: two graphs run
  // back-to-back through one pool, and worker lanes stay inside [0, size).
  ThreadPool pool(3);
  for (int round = 0; round < 2; ++round) {
    TaskGraph g;
    std::atomic<int> sum{0};
    std::vector<TaskId> ids;
    for (int i = 0; i < 20; ++i)
      ids.push_back(g.add_task([&sum, i] { sum += i; }, "add"));
    for (int i = 1; i < 20; i += 2) g.add_dependency(ids[i - 1], ids[i]);
    const ExecStats stats = g.execute(pool);
    EXPECT_EQ(sum.load(), 190);
    EXPECT_EQ(stats.n_workers, 3);
    for (const auto& r : stats.records) {
      EXPECT_GE(r.worker, 0);
      EXPECT_LT(r.worker, 3);
    }
  }
  pool.wait_idle();
}

TEST(TaskGraph, MetadataReachesRecordsAndCsv) {
  TaskGraph g;
  g.add_task([] {}, "basis", /*owner=*/7, /*level=*/2);
  g.add_task([] {}, "merge", /*owner=*/3, /*level=*/1);
  const ExecStats stats = g.execute(1);
  ASSERT_EQ(stats.records.size(), 2u);
  EXPECT_EQ(stats.records[0].owner, 7);
  EXPECT_EQ(stats.records[0].level, 2);
  EXPECT_EQ(stats.records[1].owner, 3);
  EXPECT_EQ(stats.records[1].level, 1);

  const std::string path = ::testing::TempDir() + "/trace_meta_test.csv";
  ASSERT_TRUE(TaskGraph::write_trace_csv(stats, path));
  std::ifstream f(path);
  // `#` comment lines carry the per-worker counters ahead of the column
  // header: one line for the one worker.
  std::string line;
  int comments = 0;
  while (std::getline(f, line) && line.rfind("#", 0) == 0) {
    ++comments;
    EXPECT_EQ(line.rfind("# worker=0 executed=2 stolen=0", 0), 0u) << line;
  }
  EXPECT_EQ(comments, 1);
  EXPECT_EQ(line, "task,label,owner,level,worker,t_start,t_end");
  std::string row;
  ASSERT_TRUE(std::getline(f, row));
  EXPECT_EQ(row.rfind("0,basis,7,2,", 0), 0u) << row;
}

TEST(TaskGraph, RecordExportsMetaAndEdges) {
  TaskGraph g;
  const TaskId a = g.add_task([] {}, "fill", 0, 3);
  const TaskId b = g.add_task([] {}, "basis", 0, 3);
  g.add_dependency(a, b);
  const DagRecord rec = g.record();
  ASSERT_EQ(rec.n_tasks(), 2);
  EXPECT_EQ(rec.meta[a].label, "fill");
  EXPECT_EQ(rec.meta[b].level, 3);
  ASSERT_EQ(rec.successors[a].size(), 1u);
  EXPECT_EQ(rec.successors[a][0], b);
  // No priority was assigned: the record advertises that as an EMPTY vector,
  // not a full-length all-zeros one a replayer could mistake for real ranks.
  EXPECT_TRUE(rec.priority.empty());
  // Same contract for payloads: nothing recorded -> empty, so the dist
  // model never charges phantom zero-byte messages as if measured.
  EXPECT_TRUE(rec.out_bytes.empty());

  // Once any payload is set (legal even after execute(): sizes are often
  // only known post-run), the full-length vector is exported.
  g.set_out_bytes(b, 4096.0);
  const DagRecord with_bytes = g.record();
  ASSERT_EQ(with_bytes.out_bytes.size(), 2u);
  EXPECT_DOUBLE_EQ(with_bytes.out_bytes[a], 0.0);
  EXPECT_DOUBLE_EQ(with_bytes.out_bytes[b], 4096.0);
}

TEST(ThreadPool, CurrentIdentifiesOwningPool) {
  EXPECT_EQ(ThreadPool::current(), nullptr);
  ThreadPool pool(2);
  std::atomic<int> hits{0};
  for (int i = 0; i < 8; ++i)
    pool.submit([&] {
      if (ThreadPool::current() == &pool) ++hits;
    });
  pool.wait_idle();
  EXPECT_EQ(hits.load(), 8);
  EXPECT_EQ(ThreadPool::current(), nullptr);  // still not a pool thread
}

TEST(ThreadPool, WorkerIndexIsStableAndScoped) {
  EXPECT_EQ(ThreadPool::worker_index(), -1);  // caller owns no pool
  ThreadPool pool(4);
  std::mutex m;
  std::vector<int> seen;
  for (int i = 0; i < 64; ++i)
    pool.submit([&] {
      std::lock_guard<std::mutex> lk(m);
      seen.push_back(ThreadPool::worker_index());
    });
  pool.wait_idle();
  ASSERT_EQ(seen.size(), 64u);
  for (const int w : seen) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 4);
  }
}

TEST(ThreadPool, EnvThreadsUnsetFallsBackToHardware) {
  const ScopedEnv guard("H2_THREADS", nullptr);
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  EXPECT_EQ(ThreadPool::env_threads(), hw);
}

TEST(ThreadPool, EnvThreadsParsesValidValue) {
  const ScopedEnv guard("H2_THREADS", "3");
  EXPECT_EQ(ThreadPool::env_threads(), 3);
}

TEST(ThreadPool, EnvThreadsInvalidValuesAllFallBackToHardware) {
  // Garbage, partial parses, zero and negative values are rejected the same
  // way: the variable is ignored and the hardware fallback applies.
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (const char* bad : {"abc", "3cows", "", "1.5", "0", "-1", "-32"}) {
    const ScopedEnv guard("H2_THREADS", bad);
    EXPECT_EQ(ThreadPool::env_threads(), hw) << '"' << bad << '"';
  }
}

TEST(ThreadPool, EnvThreadsHugeValuesClampToCap) {
  for (const char* huge : {"4097", "999999", "9223372036854775807"}) {
    const ScopedEnv guard("H2_THREADS", huge);
    EXPECT_EQ(ThreadPool::env_threads(), 1024) << '"' << huge << '"';
  }
}

TEST(ThreadPool, EnvThreadsOverflowFallsBackToHardware) {
  // Past LONG_MAX strtol saturates and sets ERANGE; env::get_int treats that
  // as unparsable (the saturated value is not what was configured), so the
  // hardware fallback applies instead of the 1024 clamp.
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const ScopedEnv guard("H2_THREADS", "99999999999999999999999");
  EXPECT_EQ(ThreadPool::env_threads(), hw);
}

TEST(ThreadPool, EnvThreadsExplicitSignAccepted) {
  const ScopedEnv guard("H2_THREADS", "+6");
  EXPECT_EQ(ThreadPool::env_threads(), 6);
}

TEST(ThreadPool, SingleWorkerNeverSteals) {
  // A worker cannot steal from itself: with one lane every task is local.
  ThreadPool pool(1);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 50);
  const auto counters = pool.worker_counters();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].executed, 50u);
  EXPECT_EQ(counters[0].stolen, 0u);
}

TEST(ThreadPool, StarvedWorkerActuallySteals) {
  // All sub-tasks are pushed onto ONE worker's local deque (the root task
  // submits them from inside the pool); the other worker has nothing and
  // must steal from the loaded deque's FIFO end to participate at all.
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] {
    for (int i = 0; i < 64; ++i)
      pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        ++count;
      });
  });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 64);
  const auto counters = pool.worker_counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].executed + counters[1].executed, 65u);
  EXPECT_GE(counters[0].stolen + counters[1].stolen, 1u);
}

TEST(ThreadPool, SharedQueueRunsHighestPriorityFirst) {
  // One worker, a gate task blocking it, three prioritized tasks submitted
  // from outside the pool (so they land in the shared queue, not a worker
  // deque): they must be released highest priority first. (If the worker
  // has not yet claimed the gate, the gate's priority 10 still sorts it
  // first, so the observed order is identical.)
  ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  pool.submit([opened] { opened.wait(); }, /*priority=*/10.0);
  std::vector<int> order;
  for (const int p : {1, 3, 2})
    pool.submit([&order, p] { order.push_back(p); },
                static_cast<double>(p));
  gate.set_value();
  pool.wait_idle();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
}

TEST(ThreadPool, SharedQueueKeepsSubmissionOrderOnEqualPriority) {
  ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  pool.submit([opened] { opened.wait(); }, /*priority=*/10.0);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    pool.submit([&order, i] { order.push_back(i); });
  gate.set_value();
  pool.wait_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TaskGraph, ExecuteFromOwnPoolWorkerThrows) {
  // A worker feeding a graph to its own pool would block on work queued
  // behind itself; the guard turns the silent deadlock into an error.
  ThreadPool pool(1);
  std::atomic<bool> threw{false};
  pool.submit([&] {
    TaskGraph g;
    g.add_task([] {});
    try {
      g.execute(pool);
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  pool.wait_idle();
  EXPECT_TRUE(threw.load());
}

TEST(TaskGraph, CriticalPathPrioritiesAreBottomLevels) {
  // a -> b -> c chain plus an isolated d: the bottom level (in tasks) of a
  // node is the longest chain hanging off it, itself included.
  TaskGraph g;
  const TaskId a = g.add_task([] {}, "a");
  const TaskId b = g.add_task([] {}, "b");
  const TaskId c = g.add_task([] {}, "c");
  const TaskId d = g.add_task([] {}, "d");
  g.add_dependency(a, b);
  g.add_dependency(b, c);
  g.set_critical_path_priorities();
  const std::vector<double>& p = g.priorities();
  EXPECT_DOUBLE_EQ(p[a], 3.0);
  EXPECT_DOUBLE_EQ(p[b], 2.0);
  EXPECT_DOUBLE_EQ(p[c], 1.0);
  EXPECT_DOUBLE_EQ(p[d], 1.0);
  // Priorities travel with the callable-free record.
  const DagRecord rec = g.record();
  ASSERT_EQ(rec.priority.size(), 4u);
  EXPECT_DOUBLE_EQ(rec.priority[a], 3.0);
}

TEST(TaskGraph, ExecStatsCarryPerRunCounters) {
  ThreadPool pool(1);
  for (int round = 0; round < 2; ++round) {
    TaskGraph g;
    const int n = 16 + round;
    for (int i = 0; i < n; ++i) g.add_task([] {}, "t");
    g.set_critical_path_priorities();
    const ExecStats stats = g.execute(pool);
    ASSERT_EQ(stats.worker_counters.size(), 1u);
    // Deltas, not the pool's cumulative counters: round 2 sees only its own.
    EXPECT_EQ(stats.worker_counters[0].executed,
              static_cast<std::uint64_t>(n));
    EXPECT_EQ(stats.total_steals(), 0u);  // one worker cannot steal
  }
}

TEST(TaskGraph, PrioritizedExecutionStillRespectsDependencies) {
  // Priorities may only reorder READY tasks: give the chain's tail a huge
  // priority and the dependency order must still win.
  TaskGraph g;
  std::vector<int> order;
  std::mutex m;
  auto push = [&](int v) {
    std::lock_guard<std::mutex> lk(m);
    order.push_back(v);
  };
  const TaskId a = g.add_task([&] { push(0); }, "a");
  const TaskId b = g.add_task([&] { push(1); }, "b");
  const TaskId c = g.add_task([&] { push(2); }, "c");
  g.add_dependency(a, b);
  g.add_dependency(b, c);
  g.set_priority(c, 1000.0);
  g.set_priority(a, 0.5);
  (void)g.execute(4);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  // Hand-assigned priorities travel with the record like structural ones.
  const DagRecord rec = g.record();
  ASSERT_EQ(rec.priority.size(), 3u);
  EXPECT_EQ(rec.priority[c], 1000.0);
}

TEST(TaskGraph, SetPriorityRefinesCriticalPath) {
  // The factorization boosts its release tasks AFTER the critical-path
  // ranking ran; the record carries the overridden value and keeps the
  // structural rank of every other task.
  TaskGraph g;
  const TaskId a = g.add_task([] {}, "a");
  const TaskId b = g.add_task([] {}, "b");
  g.add_dependency(a, b);
  g.set_critical_path_priorities();
  g.set_priority(b, 99.0);
  (void)g.execute(1);
  const DagRecord rec = g.record();
  ASSERT_EQ(rec.priority.size(), 2u);
  EXPECT_EQ(rec.priority[a], 2.0);
  EXPECT_EQ(rec.priority[b], 99.0);
}

TEST(TaskGraph, OutBytesCapturedInsideTasksReachTheRecord) {
  // Free-time capture: a task may report its own payload from inside its
  // body (the ULV tasks do — their byte counts depend on ranks the numerics
  // just chose, and the inputs of a post-hoc sweep get released mid-run).
  TaskGraph g;
  std::vector<TaskId> ids(8, -1);
  for (int i = 0; i < 8; ++i) {
    const auto id = std::make_shared<TaskId>(-1);
    ids[i] = g.add_task([&g, id, i] { g.set_out_bytes(*id, 100.0 + i); });
    *id = ids[i];
  }
  g.execute(4);
  const DagRecord rec = g.record();
  ASSERT_EQ(rec.out_bytes.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(rec.out_bytes[ids[i]], 100.0 + i);
}

TEST(TaskGraph, ExecStatsTrackBlockMemoryWindow) {
  // execute() opens a blockmem window: peak_block_bytes is the high-water
  // mark of charges made by the tasks, live_block_bytes what they left
  // allocated.
  blockmem::discharge(blockmem::live());  // isolate from prior tests
  TaskGraph g;
  const TaskId a = g.add_task([] { blockmem::charge(1000); }, "alloc");
  const TaskId b = g.add_task([] { blockmem::discharge(600); }, "free");
  g.add_dependency(a, b);
  const ExecStats stats = g.execute(1);
  EXPECT_GE(stats.peak_block_bytes, 1000u);
  EXPECT_EQ(stats.live_block_bytes, 400u);
  blockmem::discharge(400);  // leave the process-global counter clean
}

TEST(BlockPool, RecyclesStorageAndTracksStats) {
  BlockPool pool(64 << 20);
  Matrix m = pool.make(10, 20);
  EXPECT_EQ(m.rows(), 10);
  EXPECT_EQ(m.cols(), 20);
  for (int i = 0; i < m.rows(); ++i)
    for (int j = 0; j < m.cols(); ++j) EXPECT_EQ(m(i, j), 0.0);
  EXPECT_EQ(pool.stats().fresh, 1u);
  pool.recycle(std::move(m));
  EXPECT_EQ(pool.stats().parked, 1u);
  EXPECT_GE(pool.stats().cached_bytes, 200u * 8u);
  // A smaller block in the same power-of-two class reuses the parked
  // storage — and comes back zeroed.
  Matrix r = pool.make(12, 16);  // 192 <= 200 doubles, same bucket
  EXPECT_EQ(pool.stats().reused, 1u);
  EXPECT_EQ(pool.stats().cached_bytes, 0u);
  for (int i = 0; i < r.rows(); ++i)
    for (int j = 0; j < r.cols(); ++j) EXPECT_EQ(r(i, j), 0.0);
}

TEST(BlockPool, CapBoundsCachedBytesAndTrimEmpties) {
  BlockPool pool(1000 * 8);  // cap: 1000 doubles
  Matrix big = pool.make(40, 40);  // 1600 doubles: over the cap
  Matrix ok = pool.make(10, 10);
  pool.recycle(std::move(big));
  EXPECT_EQ(pool.stats().dropped, 1u);
  EXPECT_EQ(pool.stats().cached_bytes, 0u);
  pool.recycle(std::move(ok));
  EXPECT_EQ(pool.stats().parked, 1u);
  EXPECT_GT(pool.stats().cached_bytes, 0u);
  pool.trim();
  EXPECT_EQ(pool.stats().cached_bytes, 0u);
  // Empty matrices are a no-op, not a cache entry.
  pool.recycle(Matrix());
  EXPECT_EQ(pool.stats().cached_bytes, 0u);
}

TEST(BlockPool, MakeNeverHandsBackTooSmallStorage) {
  BlockPool pool(64 << 20);
  pool.recycle(pool.make(4, 4));  // park 16 doubles
  Matrix m = pool.make(5, 5);     // same size-class bucket, but 25 > 16
  EXPECT_EQ(m.rows() * m.cols(), 25);
  EXPECT_EQ(pool.stats().fresh, 2u);  // the 4x4 and the 5x5
  EXPECT_EQ(pool.stats().reused, 0u);
}

TEST(BlockPool, StorageIsCacheLineAligned) {
  // The blocked kernels' aligned panel loads rely on every Matrix — fresh or
  // recycled through the pool — starting on a kMatrixAlign boundary.
  auto aligned = [](const Matrix& m) {
    return reinterpret_cast<std::uintptr_t>(m.data()) % kMatrixAlign == 0;
  };
  BlockPool pool(64 << 20);
  for (const int n : {1, 3, 17, 64, 129}) {
    Matrix fresh(n, n);
    EXPECT_TRUE(aligned(fresh)) << "fresh n=" << n;
    Matrix pooled = pool.make(n, n);
    EXPECT_TRUE(aligned(pooled)) << "pooled fresh n=" << n;
    pool.recycle(std::move(pooled));
    Matrix reused = pool.make(n, n);
    EXPECT_TRUE(aligned(reused)) << "pooled reused n=" << n;
  }
}

}  // namespace
}  // namespace h2
