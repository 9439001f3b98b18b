#include "runtime/task_graph.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <exception>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "runtime/block_pool.hpp"
#include "util/timer.hpp"

namespace h2 {

std::vector<double> bottom_levels(
    int n_tasks, const std::vector<std::vector<TaskId>>& successors,
    const std::vector<double>& durations, double per_task_overhead) {
  const auto succs_of = [&](int i) -> const std::vector<TaskId>& {
    static const std::vector<TaskId> kNone;
    return static_cast<std::size_t>(i) < successors.size()
               ? successors[static_cast<std::size_t>(i)]
               : kNone;
  };
  if (static_cast<int>(successors.size()) > n_tasks)
    throw std::invalid_argument("bottom_levels: more successor lists than tasks");
  std::vector<int> indeg(n_tasks, 0);
  for (int i = 0; i < n_tasks; ++i)
    for (const TaskId s : succs_of(i)) {
      if (s < 0 || s >= n_tasks)
        throw std::invalid_argument("bottom_levels: successor index out of range");
      ++indeg[s];
    }
  std::vector<int> order;
  order.reserve(n_tasks);
  for (int i = 0; i < n_tasks; ++i)
    if (indeg[i] == 0) order.push_back(i);
  for (std::size_t head = 0; head < order.size(); ++head)
    for (const TaskId s : succs_of(order[head]))
      if (--indeg[s] == 0) order.push_back(s);
  if (static_cast<int>(order.size()) != n_tasks)
    throw std::logic_error("bottom_levels: dependency cycle");

  std::vector<double> bl(n_tasks, 0.0);
  for (int k = n_tasks - 1; k >= 0; --k) {
    const int i = order[k];
    double tail = 0.0;
    for (const TaskId s : succs_of(i)) tail = std::max(tail, bl[s]);
    const double dur =
        static_cast<std::size_t>(i) < durations.size() ? durations[i] : 1.0;
    bl[i] = dur + per_task_overhead + tail;
  }
  return bl;
}

TaskId TaskGraph::add_task(std::function<void()> fn, std::string label,
                           int owner, int level) {
  assert(!executed_);
  const TaskId id = static_cast<TaskId>(tasks_.size());
  tasks_.push_back(std::move(fn));
  meta_.push_back({std::move(label), owner, level});
  successors_.emplace_back();
  n_predecessors_.push_back(0);
  priority_.push_back(0.0);
  out_bytes_.push_back(0.0);
  return id;
}

void TaskGraph::set_out_bytes(TaskId id, double bytes) {
  assert(id >= 0 && id < n_tasks());
  out_bytes_[id] = bytes;
  out_bytes_set_.store(true, std::memory_order_release);
}

void TaskGraph::set_priority(TaskId id, double priority) {
  assert(id >= 0 && id < n_tasks());
  priority_[id] = priority;
  priority_set_ = true;
}

void TaskGraph::set_critical_path_priorities() {
  // Bottom levels on unit durations: priority = number of tasks on the
  // longest chain from here to the DAG's end. Task durations are unknown
  // before execution, and hop counts already give schur/merge drains their
  // head start (they sit on the cross-level spine).
  priority_ = bottom_levels(n_tasks(), successors_);
  priority_set_ = true;
}

void TaskGraph::add_dependency(TaskId before, TaskId after) {
  assert(before >= 0 && before < n_tasks() && after >= 0 && after < n_tasks());
  successors_[before].push_back(after);
  ++n_predecessors_[after];
}

std::vector<TaskId> TaskGraph::topological_order() const {
  // Kahn's algorithm on the static structure: anything a topological sweep
  // cannot reach sits on (or behind) a cycle and would deadlock execution.
  const int n = n_tasks();
  std::vector<int> degree = n_predecessors_;
  std::vector<TaskId> order;
  order.reserve(n);
  for (TaskId i = 0; i < n; ++i)
    if (degree[i] == 0) order.push_back(i);
  for (std::size_t head = 0; head < order.size(); ++head)
    for (const TaskId succ : successors_[order[head]])
      if (--degree[succ] == 0) order.push_back(succ);
  if (static_cast<int>(order.size()) == n) return order;

  const int stuck = n - static_cast<int>(order.size());
  std::ostringstream msg;
  msg << "TaskGraph: dependency cycle — " << stuck << " of " << n
      << " tasks unexecutable (stuck:";
  int shown = 0;
  for (TaskId i = 0; i < n && shown < 4; ++i) {
    if (degree[i] <= 0) continue;
    msg << (shown ? ", " : " ");
    if (meta_[i].label.empty())
      msg << '#' << i;
    else
      msg << '\'' << meta_[i].label << "' (#" << i << ')';
    ++shown;
  }
  if (stuck > shown) msg << ", ...";
  msg << ')';
  throw std::logic_error(msg.str());
}

void TaskGraph::run_inline() {
  if (executed_) throw std::logic_error("TaskGraph::run_inline called twice");
  executed_ = true;
  for (const TaskId id : topological_order()) tasks_[id]();
}

ExecStats TaskGraph::execute(ThreadPool& pool) {
  if (executed_) throw std::logic_error("TaskGraph::execute called twice");
  if (ThreadPool::current() == &pool)
    throw std::logic_error(
        "TaskGraph::execute called from a worker of the target pool — the "
        "caller would block on work queued behind itself (use a different "
        "pool, as UlvFactorization's fallback does)");
  executed_ = true;
  (void)topological_order();  // throws on cycles before any task runs
  const int n = n_tasks();

  ExecStats stats;
  stats.n_workers = pool.size();
  stats.records.resize(n);
  const std::vector<ThreadPool::WorkerCounters> counters0 =
      pool.worker_counters();

  std::vector<std::atomic<int>> pending(n);
  for (int i = 0; i < n; ++i) pending[i].store(n_predecessors_[i]);

  std::atomic<int> remaining{n};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = (n == 0);
  // First task exception. Once set, the remaining bodies are skipped but
  // their successors are still released, so the graph drains and the
  // exception surfaces on the caller instead of terminating a worker.
  std::exception_ptr error;
  std::mutex error_mutex;
  std::atomic<bool> failed{false};

  // Block-byte measurement window (see ExecStats::peak_block_bytes).
  blockmem::reset_peak();
  const Timer wall;

  // Declared before `run` so it can be captured by reference.
  std::function<void(TaskId)> schedule;
  auto run = [&](TaskId id) {
    TaskRecord& rec = stats.records[id];
    rec.id = id;
    rec.worker = std::max(0, ThreadPool::worker_index());
    rec.owner = meta_[id].owner;
    rec.level = meta_[id].level;
    rec.label = meta_[id].label;
    rec.t_start = now_sec();
    if (!failed.load(std::memory_order_acquire)) {
      try {
        tasks_[id]();
      } catch (...) {
        std::lock_guard<std::mutex> lk(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_release);
      }
    }
    rec.t_end = now_sec();
    // Release the newly ready successors lowest priority FIRST: on a
    // work-stealing pool each push lands on this worker's LIFO deque, so the
    // last push — the highest bottom level — is the task it pops next, while
    // thieves take the breadth end (stable sort: ties keep edge order).
    std::vector<TaskId> ready;
    for (const TaskId succ : successors_[id])
      if (pending[succ].fetch_sub(1) == 1) ready.push_back(succ);
    std::stable_sort(ready.begin(), ready.end(), [this](TaskId a, TaskId b) {
      return priority_[a] < priority_[b];
    });
    for (const TaskId succ : ready) schedule(succ);
    if (remaining.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lk(done_mutex);
      done = true;
      done_cv.notify_all();
    }
  };
  schedule = [&](TaskId id) {
    pool.submit([&run, id] { run(id); }, priority_[id]);
  };

  for (TaskId i = 0; i < n; ++i)
    if (n_predecessors_[i] == 0) schedule(i);

  {
    std::unique_lock<std::mutex> lk(done_mutex);
    done_cv.wait(lk, [&] { return done; });
  }
  stats.wall_seconds = wall.seconds();
  stats.peak_block_bytes = blockmem::peak();
  stats.live_block_bytes = blockmem::live();

  if (remaining.load() != 0)
    throw std::logic_error("TaskGraph: tasks left unexecuted after drain");
  if (error) std::rethrow_exception(error);
  for (const auto& rec : stats.records) stats.useful_seconds += rec.duration();

  const std::vector<ThreadPool::WorkerCounters> counters1 =
      pool.worker_counters();
  stats.worker_counters.resize(counters1.size());
  for (std::size_t w = 0; w < counters1.size(); ++w)
    stats.worker_counters[w] = {counters1[w].executed - counters0[w].executed,
                                counters1[w].stolen - counters0[w].stolen};
  return stats;
}

ExecStats TaskGraph::execute(int n_threads) {
  ThreadPool pool(n_threads);
  return execute(pool);
}

bool TaskGraph::write_trace_csv(const ExecStats& stats, const std::string& path) {
  std::ofstream f(path);
  if (!f) return false;
  for (std::size_t w = 0; w < stats.worker_counters.size(); ++w)
    f << "# worker=" << w
      << " executed=" << stats.worker_counters[w].executed
      << " stolen=" << stats.worker_counters[w].stolen << '\n';
  f << "task,label,owner,level,worker,t_start,t_end\n";
  double t0 = stats.records.empty() ? 0.0 : stats.records.front().t_start;
  for (const auto& r : stats.records) t0 = std::min(t0, r.t_start);
  for (const auto& r : stats.records)
    f << r.id << ',' << r.label << ',' << r.owner << ',' << r.level << ','
      << r.worker << ',' << (r.t_start - t0) << ',' << (r.t_end - t0) << '\n';
  return static_cast<bool>(f);
}

}  // namespace h2
