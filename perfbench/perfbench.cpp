// One benchmark program for the h2 solver: it runs a workload, checks every
// answer against the kernel itself, and prints the workload's metrics as one
// JSON line. perfbench/run.py builds and drives it; perfbench/README.md says
// what each workload and metric is for.
//
//   perfbench --workload <molecules|cube_f32|serve|spill> --seed <n>
//             --seconds <s> --trace <0|1> --scratch <dir>
//
// --trace 0 prints the end-to-end metrics, measured through the public
// Solver / Server facade. --trace 1 prints the per-layer metrics: the
// benchmark then rebuilds the workload's problem through each layer's public
// entry point (ClusterTree::build, H2Matrix, UlvFactorization, solve, refine)
// with a span around each call, and reports the traced-minus-plain overhead.
// Lines starting with "progress " report the operation count so far, so
// run.py can account for a run that dies mid-way.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/solver.hpp"
#include "core/refine.hpp"
#include "core/ulv_factorization.hpp"
#include "geometry/cloud.hpp"
#include "geometry/cluster_tree.hpp"
#include "hmatrix/h2_matrix.hpp"
#include "kernels/kernel.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "runtime/thread_pool.hpp"
#include "server/server.hpp"
#include "util/flops.hpp"
#include "util/rng.hpp"

namespace {

using namespace h2;

constexpr double kTol = 1e-6;          // solver tolerance of every workload
constexpr double kKernelPv = 1e-2;     // LaplaceKernel regularization
constexpr int kWorkers = 4;            // solver pool size
constexpr int kRhs = 32;               // distinct right-hand sides per problem
constexpr int kResidualRows = 256;     // dense residual row sample
constexpr int kSetupReps = 3;          // builds per run; setup_s is the median
constexpr int kMinSolves = kRhs + 8;   // single-caller solves; 8+ repeat a RHS
constexpr int kClients = 4;            // serve: closed-loop caller threads
constexpr int kMinRequests = 500;      // serve: requests per client
constexpr int kTraceRequests = 100;    // serve requests per client, traced run
constexpr double kWindowS = 0.25;          // a load window spans >= this
constexpr std::size_t kWindowSamples = 8;  // and holds >= this; see Samples
// Shape seed of every cloud. Clouds drawn from different seeds partition so
// differently that ranks and factor size swing 2.5x between seeds (README),
// so the run seed only orients the fixed shape; see make_problem.
constexpr std::uint64_t kShapeSeed = 1;

struct Workload {
  const char* name;
  bool molecules;        // crowded_molecules, else uniform_cube
  int n;
  Precision precision;
  double spill_mb;       // resident factor budget; 0 keeps it all in RAM
  int problems;          // distinct problems the load alternates between
  // Largest sampled dense residual a correct solver reaches here. fp64 H2 at
  // tol 1e-6 stops near 1e-5 on molecules; fp32 + fp64 refinement reaches
  // ~2e-7 on the cube. A broken factor lands near 1.
  double residual_bound;
};

const Workload kWorkloads[] = {
    {"molecules", true, 16384, Precision::F64, 0.0, 1, 1e-4},
    {"cube_f32", false, 4096, Precision::F32, 0.0, 1, 1e-5},
    {"serve", true, 4096, Precision::F64, 0.0, 2, 1e-4},
    {"spill", true, 4096, Precision::F64, 16.0, 1, 1e-4},
};

struct Args {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  double seconds = 1.0;
  bool trace = false;
  std::string scratch;
};

// ---------------------------------------------------------------- helpers

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return std::nan("");
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

constexpr double kMiB = 1024.0 * 1024.0;

// CPU seconds the hypervisor gave to other guests (the `steal` column of
// /proc/stat, summed over CPUs); 0 where that is not available. A run with
// a few seconds of steal reads slow: printed so such runs can be told apart.
double steal_seconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  return got == 8 ? static_cast<double>(v[7]) /
                        static_cast<double>(sysconf(_SC_CLK_TCK))
                  : 0.0;
}

// Independent, reproducible stream per (seed, purpose).
Rng stream(std::uint64_t seed, std::uint64_t tag) {
  return Rng(seed * 0x100000001B3ull + tag);
}

bool all_finite(ConstMatrixView x) {
  for (int j = 0; j < x.cols(); ++j)
    for (int i = 0; i < x.rows(); ++i)
      if (!std::isfinite(x(i, j))) return false;
  return true;
}

bool same_bits(ConstMatrixView a, const double* b) {
  return std::memcmp(a.data(), b, sizeof(double) * a.rows()) == 0;
}

// Operation accounting: every build, solve and request is attempted once and
// fails at most once (throw, non-finite output, residual miss, bit mismatch).
class Ledger {
 public:
  void attempt() { attempted_.fetch_add(1); }
  void fail(const std::string& why) {
    failed_.fetch_add(1);
    const std::lock_guard<std::mutex> lk(mu_);
    if (notes_.size() < 8) notes_.push_back(why);
  }
  void progress() const {
    std::printf("progress attempted=%ld failed=%ld\n", attempted_.load(),
                failed_.load());
    std::fflush(stdout);
  }
  [[nodiscard]] long attempted() const { return attempted_.load(); }
  [[nodiscard]] long failed() const { return failed_.load(); }
  [[nodiscard]] std::vector<std::string> notes() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return notes_;
  }

 private:
  std::atomic<long> attempted_{0};
  std::atomic<long> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> notes_;  // guarded by mu_
};

// Runs one operation that the rest of the run depends on; a throw is counted
// as its failure and rethrown.
template <class F>
auto counted(Ledger& led, const char* what, F&& op) {
  led.attempt();
  try {
    return op();
  } catch (const std::exception& e) {
    led.fail(std::string(what) + ": " + e.what());
    throw;
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// ---------------------------------------------------------------- problems

struct Problem {
  PointCloud pts;
  Matrix rhs;             // n x kRhs, point ordering
  std::vector<int> rows;  // residual sample, fixed per shape
};

// Uniformly random rotation (unit quaternion from three uniforms) of the
// cloud about the origin. Distances, hence the kernel matrix, the partition
// and the ranks, stay put up to rounding; the coordinates do not.
void rotate(PointCloud& pts, Rng& g) {
  constexpr double kTwoPi = 6.283185307179586;
  const double u1 = g.uniform(), u2 = g.uniform(), u3 = g.uniform();
  const double a = std::sqrt(1 - u1) * std::sin(kTwoPi * u2);
  const double b = std::sqrt(1 - u1) * std::cos(kTwoPi * u2);
  const double c = std::sqrt(u1) * std::sin(kTwoPi * u3);
  const double d = std::sqrt(u1) * std::cos(kTwoPi * u3);
  const double r[3][3] = {
      {1 - 2 * (c * c + d * d), 2 * (b * c - a * d), 2 * (b * d + a * c)},
      {2 * (b * c + a * d), 1 - 2 * (b * b + d * d), 2 * (c * d - a * b)},
      {2 * (b * d - a * c), 2 * (c * d + a * b), 1 - 2 * (b * b + c * c)}};
  for (Point& q : pts) {
    const Point o = q;
    q = {r[0][0] * o.x + r[0][1] * o.y + r[0][2] * o.z,
         r[1][0] * o.x + r[1][1] * o.y + r[1][2] * o.z,
         r[2][0] * o.x + r[2][1] * o.y + r[2][2] * o.z};
  }
}

// Problem `id` of a workload at size n: the fixed shape (kShapeSeed) turned
// by a rotation drawn from the run seed, and the run seed's right-hand
// sides. The residual rows are fixed with the shape, so the check varies
// only with the answers it checks.
Problem make_problem(const Workload& w, int n, std::uint64_t seed, int id) {
  const auto tag = static_cast<std::uint64_t>(id) * 16;
  Problem p;
  Rng shape = stream(kShapeSeed, tag + 1);
  p.pts = w.molecules ? crowded_molecules(n, shape) : uniform_cube(n, shape);
  Rng turn = stream(seed, tag + 4);
  rotate(p.pts, turn);
  Rng rhs = stream(seed, tag + 2);
  p.rhs = Matrix::random_normal(n, kRhs, rhs);
  std::vector<int> idx(n);
  for (int i = 0; i < n; ++i) idx[i] = i;
  Rng pick = stream(kShapeSeed, tag + 3);
  const int m = std::min(n, kResidualRows);
  for (int i = 0; i < m; ++i)
    std::swap(idx[i], idx[i + static_cast<int>(pick.uniform_index(n - i))]);
  p.rows.assign(idx.begin(), idx.begin() + m);
  return p;
}

// Squared residual and right-hand-side norms summed over checked answers, so
// that checks aggregate into one block residual.
struct ResidualSum {
  double num = 0.0, den = 0.0;
  [[nodiscard]] double rel() const { return std::sqrt(num / den); }
};

// Checks each answer x(:, c) (point ordering) with checked[c] set: its dense
// relative residual ||b_S - K(S,:) x||_2 / ||b_S||_2 over the sampled rows S,
// evaluated from the Kernel itself rather than from any compressed operator,
// must be within the bound. Returns the sums over the checked answers.
ResidualSum check_residuals(const Problem& p, const Kernel& kernel,
                            ConstMatrixView x, const std::vector<bool>& checked,
                            double bound, Ledger& led) {
  const int n = static_cast<int>(p.pts.size());
  std::vector<double> num(x.cols(), 0.0), den(x.cols(), 0.0), krow(n);
  for (const int i : p.rows) {
    for (int j = 0; j < n; ++j) krow[j] = kernel.eval(p.pts[i], p.pts[j]);
    for (int c = 0; c < x.cols(); ++c) {
      double r = p.rhs(i, c);
      const double* xc = x.col(c);
      for (int j = 0; j < n; ++j) r -= krow[j] * xc[j];
      num[c] += r * r;
      den[c] += p.rhs(i, c) * p.rhs(i, c);
    }
  }
  ResidualSum sum;
  for (int c = 0; c < x.cols(); ++c) {
    if (!checked[c]) continue;
    const double rel = std::sqrt(num[c] / den[c]);
    if (!(rel <= bound))
      led.fail("residual " + std::to_string(rel) + " above bound " +
               std::to_string(bound));
    sum.num += num[c];
    sum.den += den[c];
  }
  return sum;
}

SolverOptions solver_options(const Workload& w) {
  // Library defaults except tol and workers; the env-backed defaults are
  // pinned so the configuration never depends on the caller's environment.
  SolverOptions o;
  o.tol = kTol;
  o.n_workers = kWorkers;
  o.precision = w.precision;
  o.spill_dir.clear();
  o.spill_budget_mb = w.spill_mb > 0.0 ? w.spill_mb : 256.0;
  o.spill_threads = 2;
  return o;
}

// A spill directory that lives exactly as long as the solver using it.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string spill_path(const Args& a, const std::string& tag) {
  return a.w->spill_mb > 0.0 ? a.scratch + "/spill-" + tag : std::string();
}

struct Built {
  std::unique_ptr<ScratchDir> dir;  // declared first: outlives the solver
  std::optional<Solver> solver;
  double seconds = 0.0;

  void release() {  // the solver before the directory it spills into
    solver.reset();
    dir.reset();
  }
};

// One facade build, counted as one operation. Throws if it fails: nothing
// downstream can run without the factorization.
Built build(const Args& a, const Problem& p, const Kernel& kernel,
            const std::string& tag, Ledger& led) {
  Built b;
  b.dir = std::make_unique<ScratchDir>(spill_path(a, tag));
  SolverOptions o = solver_options(*a.w);
  o.spill_dir = b.dir->path();
  const double t0 = now_s();
  b.solver.emplace(
      counted(led, "build", [&] { return Solver::build(p.pts, kernel, o); }));
  b.seconds = now_s() - t0;
  led.progress();
  return b;
}

// ------------------------------------------------------- single-caller load

// Latency samples of a timed load, each stamped with the time since the load
// started at which it completed.
//
// Other guests of a shared virtual machine take its CPUs in bursts of
// seconds to minutes (the steal of /proc/stat), and a solve spread over 4
// workers stalls whenever one of them is descheduled; the ~2x slowdown of
// such a stretch swamped whole-run medians and tails. So the load is read in
// short windows, and its metrics come from its quietest window: latency is
// the least window median, throughput the greatest window rate. Host noise
// only ever slows a window, while a change to the solver's own cost moves
// every window alike, hence these too.
struct Samples {
  std::vector<double> at_s, ms;

  void add(double at, double latency_ms) {
    at_s.push_back(at);
    ms.push_back(latency_ms);
  }
  void append(const Samples& o) {
    at_s.insert(at_s.end(), o.at_s.begin(), o.at_s.end());
    ms.insert(ms.end(), o.ms.begin(), o.ms.end());
  }

  struct Window {
    std::vector<double> ms;
    double span_s = 0.0;
  };

  // Consecutive windows in completion order, each closed once it spans at
  // least kWindowS seconds and holds at least kWindowSamples samples. The
  // unfinished last window is dropped, unless the load never closed one.
  [[nodiscard]] std::vector<Window> windows() const {
    std::vector<std::size_t> order(ms.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return at_s[a] < at_s[b]; });
    std::vector<Window> out;
    Window cur;
    double open = 0.0;
    for (const std::size_t i : order) {
      cur.ms.push_back(ms[i]);
      cur.span_s = at_s[i] - open;
      if (cur.span_s >= kWindowS && cur.ms.size() >= kWindowSamples) {
        out.push_back(std::move(cur));
        cur = Window{};
        open = at_s[i];
      }
    }
    if (out.empty() && !cur.ms.empty()) out.push_back(std::move(cur));
    return out;
  }
};

struct SolveRun {
  Samples samples;            // per-solve latency
  double rel_residual = 0.0;  // of all checked answers as one block
};

// Closed loop, one caller: at least `min_solves` solves and at least
// `seconds` of them, cycling through the problem's kRhs right-hand sides.
// The first answer to each right-hand side gets the dense residual check;
// every later answer to it must repeat those bits exactly.
SolveRun solve_loop(const std::function<Matrix(ConstMatrixView)>& solve,
                    const Problem& p, const Kernel& kernel, double bound,
                    int min_solves, double seconds, Ledger& led) {
  const int n = p.rhs.rows();
  Matrix first(n, kRhs);
  std::vector<bool> have(kRhs, false);
  SolveRun run;
  const double start = now_s();
  for (int i = 0; i < min_solves || now_s() - start < seconds; ++i) {
    const int c = i % kRhs;
    led.attempt();
    const double t0 = now_s();
    Matrix x;
    try {
      x = solve(p.rhs.block(0, c, n, 1));
    } catch (const std::exception& e) {
      led.fail(std::string("solve: ") + e.what());
      continue;
    }
    const double t1 = now_s();
    run.samples.add(t1 - start, (t1 - t0) * 1e3);
    if (!all_finite(x)) {
      led.fail("solve: non-finite answer");
    } else if (i < kRhs) {
      std::memcpy(first.view().col(c), x.data(), sizeof(double) * n);
      have[c] = true;
    } else if (have[c] && !same_bits(x, first.view().col(c))) {
      led.fail("solve: same right-hand side, different bits");
    }
  }
  run.rel_residual = check_residuals(p, kernel, first, have, bound, led).rel();
  led.progress();
  return run;
}

void print_accuracy(const Workload& w, double rel_residual) {
  std::printf("accuracy rel_residual %.3g (tol %.0e, bound %.0e)\n",
              rel_residual, kTol, w.residual_bound);
}

// Latency and throughput from the quietest window of the load (see Samples).
// A single caller's rate is solves per second of solve time; with `callers`
// the rate is requests completed per second of the window.
void add_solve_metrics(Metrics& m, const Workload& w, const Samples& s,
                       bool callers, double rel_residual) {
  std::vector<double> latency, rate;
  for (const Samples::Window& v : s.windows()) {
    latency.push_back(median(v.ms));
    const auto n = static_cast<double>(v.ms.size());
    rate.push_back(callers ? n / v.span_s : n / (sum(v.ms) / 1e3));
  }
  if (!latency.empty())
    std::printf(
        "windows %zu (>= %.2f s, >= %zu samples): median latency %.4g .. "
        "%.4g ms; whole run (%zu samples): p50 %.4g ms, p90 %.4g ms, p99 "
        "%.4g ms\n",
        latency.size(), kWindowS, kWindowSamples,
        *std::min_element(latency.begin(), latency.end()),
        *std::max_element(latency.begin(), latency.end()), s.ms.size(),
        quantile(s.ms, 0.5), quantile(s.ms, 0.9), quantile(s.ms, 0.99));
  m.push_back({"solve_ms", quantile(latency, 0.0), "ms"});
  m.push_back({"solves_per_s", quantile(rate, 1.0), "1/s"});
  // Accuracy in digits: on the fp32 path any residual below tol is a
  // converged answer, and its value moves ~30% with rounding-level changes
  // of the input; its logarithm stays put.
  m.push_back({"accuracy_digits", -std::log10(rel_residual), "digits"});
  print_accuracy(w, rel_residual);
}

double slope(double big, double small) {
  return std::log(big / small) / std::log(4.0);
}

Metrics run_single(const Args& a, Ledger& led) {
  const Workload& w = *a.w;
  const LaplaceKernel kernel(kKernelPv);
  const Problem big = make_problem(w, w.n, a.seed, 0);
  const Problem small = make_problem(w, w.n / 4, a.seed, 1);
  std::vector<double> big_s, small_s;
  Built keep;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    keep.release();  // free the previous factorization first
    small_s.push_back(build(a, small, kernel, "small", led).seconds);
    keep = build(a, big, kernel, "big" + std::to_string(rep), led);
    big_s.push_back(keep.seconds);
  }
  const Solver& s = *keep.solver;
  const SolveRun run = solve_loop(
      [&](ConstMatrixView b) { return s.solve(b); }, big, kernel,
      w.residual_bound, kMinSolves, a.seconds, led);
  Metrics m;
  m.push_back({"setup_s", median(big_s), "s"});
  m.push_back({"setup_slope", slope(median(big_s), median(small_s)), "1"});
  add_solve_metrics(m, w, run.samples, false, run.rel_residual);
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  return m;
}

// ------------------------------------------------------------- serve load

struct ServeRun {
  double setup_s = 0.0;           // warm-up acquires of every problem
  double first_acquire_s = 0.0;   // the acquire of problem 0 alone
  Samples samples;                // per-request latency, all clients
  double rel_residual = 0.0;
  std::vector<double> facade_ms;  // handle.solver().solve of the references
  ServerStats stats;
};

// Warm up by acquiring every problem, solve each right-hand side once through
// handle.solver() as the reference, then let kClients closed-loop clients
// issue single-RHS Server::solve(points, kernel, b, opt) calls alternating
// between the problems. Every answer must equal its reference bitwise.
// With min_requests == 0 and seconds == 0 it stops after the references.
ServeRun serve_once(const Args& a, const std::vector<Problem>& probs,
                    const Kernel& kernel, int min_requests, double seconds,
                    Ledger& led) {
  const SolverOptions o = solver_options(*a.w);
  Server server;
  ServeRun run;
  std::vector<Server::FactorHandle> handles;
  const double t0 = now_s();
  for (const Problem& p : probs) {
    handles.push_back(counted(
        led, "acquire", [&] { return server.acquire(p.pts, kernel, o); }));
    if (handles.size() == 1) run.first_acquire_s = now_s() - t0;
  }
  run.setup_s = now_s() - t0;
  led.progress();

  std::vector<Matrix> ref;
  ResidualSum checked;
  for (std::size_t p = 0; p < probs.size(); ++p) {
    const int n = probs[p].rhs.rows();
    Matrix x(n, kRhs);
    for (int c = 0; c < kRhs; ++c) {
      const double s0 = now_s();
      const Matrix xc = counted(led, "reference solve", [&] {
        return handles[p].solver().solve(probs[p].rhs.block(0, c, n, 1));
      });
      run.facade_ms.push_back((now_s() - s0) * 1e3);
      std::memcpy(x.view().col(c), xc.data(), sizeof(double) * n);
    }
    const ResidualSum r = check_residuals(probs[p], kernel, x,
                                          std::vector<bool>(kRhs, true),
                                          a.w->residual_bound, led);
    checked.num += r.num;
    checked.den += r.den;
    ref.push_back(std::move(x));
  }
  run.rel_residual = checked.rel();
  led.progress();

  std::vector<Samples> lat(kClients);
  std::vector<std::jthread> clients;  // joined on every path
  const double start = now_s();
  for (int cl = 0; cl < kClients; ++cl) {
    clients.emplace_back([&, cl] {
      for (int k = 0; k < min_requests || now_s() - start < seconds; ++k) {
        const auto p = static_cast<std::size_t>((k + cl) % probs.size());
        const int c = (k / 2 + 3 * cl) % kRhs;
        const int n = probs[p].rhs.rows();
        led.attempt();
        const double s0 = now_s();
        try {
          const Matrix x = server.solve(probs[p].pts, kernel,
                                        probs[p].rhs.block(0, c, n, 1), o);
          const double s1 = now_s();
          lat[cl].add(s1 - start, (s1 - s0) * 1e3);
          if (!same_bits(x, ref[p].view().col(c)))
            led.fail("serve: answer differs from handle.solver().solve(b)");
        } catch (const std::exception& e) {
          led.fail(std::string("serve: ") + e.what());
        }
      }
    });
  }
  clients.clear();
  for (const Samples& l : lat) run.samples.append(l);
  run.stats = server.stats();
  led.progress();
  return run;
}

std::vector<Problem> problems(const Args& a, int n) {
  std::vector<Problem> probs;
  for (int p = 0; p < a.w->problems; ++p)
    probs.push_back(make_problem(*a.w, n, a.seed, p));
  return probs;
}

Metrics run_serve(const Args& a, Ledger& led) {
  const LaplaceKernel kernel(kKernelPv);
  const std::vector<Problem> probs = problems(a, a.w->n);
  const Problem small = make_problem(*a.w, a.w->n / 4, a.seed, 1);
  std::vector<double> setup_s, small_s;
  ServeRun run;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Server cold;  // empty cache: the acquire builds
    const double t0 = now_s();
    (void)counted(led, "acquire", [&] {
      return cold.acquire(small.pts, kernel, solver_options(*a.w));
    });
    small_s.push_back(now_s() - t0);
    led.progress();
  }
  // Each rep is a cold server; the last one also carries the timed load.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep + 1 == kSetupReps;
    run = serve_once(a, probs, kernel, last ? kMinRequests : 0,
                     last ? a.seconds : 0.0, led);
    setup_s.push_back(run.setup_s);
  }
  Metrics m;
  m.push_back({"setup_s", median(setup_s), "s"});
  m.push_back({"setup_slope",
               slope(median(setup_s) / static_cast<double>(probs.size()),
                     median(small_s)),
               "1"});
  add_solve_metrics(m, *a.w, run.samples, true, run.rel_residual);
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  return m;
}

// ------------------------------------------------------------ traced run

// Layer spans and counters of one traced build + solve pass over a problem.
struct Trace {
  double tree_s = 0, h2_s = 0, h2_flops = 0, factor_s = 0;
  int h2_rank = 0;
  UlvStats ulv;
  std::vector<double> core_ms, refine_ms, refine_iters;
  std::vector<double> layer_ms;  // core solve + refine, per solve
  std::vector<double> solve_ms;  // whole traced solve, permutations included
  SpillStats spill_before, spill_after;
  int solves = 0;
  double rel_residual = 0.0;
};

// Rebuild the problem exactly as Solver::build composes it, one public layer
// call at a time, with task recording on; then solve through
// UlvFactorization::solve (+ refine under fp32) in tree order.
Trace traced_pass(const Args& a, const Problem& p, const Kernel& kernel,
                  Ledger& led) {
  SolverOptions o = solver_options(*a.w);
  const ScratchDir dir(spill_path(a, "traced"));
  o.spill_dir = dir.path();
  o.record_tasks = true;
  ThreadPool pool(o.n_workers, o.ulv_options().queue_policy());
  o.pool = &pool;
  H2BuildOptions ho;
  ho.admissibility = {Admissibility::Strong, o.eta};
  ho.tol = o.build_tol_factor * o.tol;
  ho.max_rank = o.max_rank;
  Trace t;
  std::optional<ClusterTree> built_tree;
  std::optional<H2Matrix> built_h2;
  std::optional<UlvFactorization> built_f;
  counted(led, "traced build", [&] {  // one operation, three spans
    double t0 = now_s();
    Rng rng(o.seed);
    built_tree.emplace(
        ClusterTree::build(p.pts, o.leaf_size, rng, o.partitioner));
    t.tree_s = now_s() - t0;
    const std::uint64_t f0 = flops::total();
    t0 = now_s();
    built_h2.emplace(*built_tree, kernel, ho);
    t.h2_s = now_s() - t0;
    t.h2_flops = static_cast<double>(flops::total() - f0);
    t0 = now_s();
    built_f.emplace(*built_h2, o.ulv_options());
    t.factor_s = now_s() - t0;
  });
  const ClusterTree& tree = *built_tree;
  const H2Matrix& h2 = *built_h2;
  const UlvFactorization& f = *built_f;
  t.h2_rank = h2.max_rank_used();
  t.ulv = f.stats();
  led.progress();

  const double target = o.refine_tol > 0.0 ? o.refine_tol : o.tol;
  auto solve = [&](ConstMatrixView b) {
    const double s0 = now_s();
    Matrix x = tree.to_tree_order(b);
    const Matrix bt = Matrix::from(x);
    const double c0 = now_s();
    f.solve(x);
    const double c1 = now_s();
    t.core_ms.push_back((c1 - c0) * 1e3);
    if (o.precision == Precision::F32) {
      const RefineResult rr =
          refine(h2, [&f](MatrixView v) { f.solve(v); }, bt, x,
                 o.max_refine_iters, target);
      t.refine_ms.push_back((now_s() - c1) * 1e3);
      t.refine_iters.push_back(rr.iterations);
    }
    t.layer_ms.push_back((now_s() - c0) * 1e3);
    Matrix out = tree.from_tree_order(x);
    t.solve_ms.push_back((now_s() - s0) * 1e3);
    return out;
  };
  t.spill_before = f.spill_stats();
  const SolveRun run = solve_loop(solve, p, kernel, a.w->residual_bound,
                                  kMinSolves, 0.0, led);
  t.spill_after = f.spill_stats();
  t.solves = static_cast<int>(run.samples.ms.size());
  t.rel_residual = run.rel_residual;
  return t;
}

// Achieved rate of a public kernel from the library's own flop counter:
// median of three samples of >= 50 ms of back-to-back calls each.
template <class F>
double kernel_gflops(F&& call) {
  std::vector<double> rate;
  for (int r = 0; r < 3; ++r) {
    const std::uint64_t f0 = flops::total();
    const double t0 = now_s();
    do call();
    while (now_s() - t0 < 0.05);
    rate.push_back(static_cast<double>(flops::total() - f0) /
                   (now_s() - t0) / 1e9);
  }
  return median(rate);
}

// pivoted_qr and gemm on basis-shaped inputs: a parent cluster stacks two
// children's skeletons (m = 2 r rows) against a wide block of contributions.
std::pair<double, double> linalg_rates(const Args& a, int rank) {
  const int r = std::clamp(rank, 16, 384);
  const int m = 2 * r;
  Rng g = stream(a.seed, 99);
  const Matrix wide = Matrix::random_normal(m, 4 * m, g);
  const Matrix sq = Matrix::random_normal(m, m, g);
  const Matrix thin = Matrix::random_normal(m, r, g);
  if (a.w->precision == Precision::F32) {
    const MatrixF wf = to_f32(wide), sf = to_f32(sq), tf = to_f32(thin);
    MatrixF cf(m, r);
    return {kernel_gflops([&] { (void)pivoted_qr(wf.view(), kTol); }),
            kernel_gflops([&] {
              gemm(1.0, sf, Trans::No, tf, Trans::No, 0.0, cf);
            })};
  }
  Matrix c(m, r);
  return {kernel_gflops([&] { (void)pivoted_qr(wide.view(), kTol); }),
          kernel_gflops(
              [&] { gemm(1.0, sq, Trans::No, thin, Trans::No, 0.0, c); })};
}

Metrics run_traced(const Args& a, Ledger& led) {
  const Workload& w = *a.w;
  const LaplaceKernel kernel(kKernelPv);
  Metrics m;

  // Tracing off: the facade, as the end-to-end run measures it.
  double setup_off = 0.0, solve_off = 0.0;
  const std::vector<Problem> probs = problems(a, w.n);
  ServerStats s;  // stays zero off the serve workload
  if (std::strcmp(w.name, "serve") == 0) {
    const ServeRun run =
        serve_once(a, probs, kernel, kTraceRequests, 0.0, led);
    setup_off = run.first_acquire_s;
    solve_off = median(run.facade_ms);
    s = run.stats;
  } else {
    const Built b = build(a, probs[0], kernel, "plain", led);
    setup_off = b.seconds;
    const SolveRun run = solve_loop(
        [&](ConstMatrixView x) { return b.solver->solve(x); }, probs[0],
        kernel, w.residual_bound, kMinSolves, 0.0, led);
    solve_off = median(run.samples.ms);
  }
  const auto put = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  const auto mb = [](std::uint64_t bytes) {
    return static_cast<double>(bytes) / kMiB;
  };
  const auto med = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : median(v);
  };
  put("server.mean_batch", ratio(s.rhs_served, s.backend_solves), "rhs");
  put("server.coalesced_frac", ratio(s.coalesced_requests, s.requests), "1");
  put("server.hit_rate", ratio(s.hits, s.hits + s.misses), "1");
  put("server.p99_ms", s.p99_ms, "ms");

  // Tracing on: the same problem through the layers, one span per call.
  const Trace t = traced_pass(a, probs[0], kernel, led);
  const UlvStats& u = t.ulv;
  std::map<std::string, double> phase;
  double task_s = 0.0;
  for (const UlvTaskRecord& r : u.tasks) {
    std::string k = r.kind;
    if (k == "project_lr") k = "project";
    if (k == "col_solve" || k == "top") k = "eliminate";
    phase[k] += r.seconds;
    task_s += r.seconds;
  }

  put("geometry.tree_s", t.tree_s, "s");
  put("hmatrix.build_s", t.h2_s, "s");
  put("hmatrix.gflops", t.h2_flops / t.h2_s / 1e9, "GFlop/s");
  put("hmatrix.max_rank", t.h2_rank, "count");
  put("core.factor_s", t.factor_s, "s");
  put("core.factor_gflops",
      static_cast<double>(u.factor_flops) / t.factor_s / 1e9, "GFlop/s");
  put("core.max_rank", u.max_rank, "count");
  put("core.peak_block_mb", mb(u.peak_block_bytes), "MB");
  put("core.final_block_mb", mb(u.final_block_bytes), "MB");
  for (const char* k :
       {"fill", "basis", "project", "eliminate", "schur", "merge"})
    m.push_back({std::string("core.") + k + "_s", phase[k], "s"});
  put("runtime.busy_frac", task_s / (t.factor_s * kWorkers), "1");
  put("runtime.tasks", static_cast<double>(u.tasks.size()), "count");
  put("runtime.steals", static_cast<double>(u.exec.total_steals()), "count");

  const auto [qr_rate, gemm_rate] = linalg_rates(a, u.max_rank);
  put("linalg.pivoted_qr_gflops", qr_rate, "GFlop/s");
  put("linalg.gemm_gflops", gemm_rate, "GFlop/s");

  put("core.solve_ms", med(t.core_ms), "ms");
  put("api.solve_overhead_ms", solve_off - med(t.layer_ms), "ms");
  put("refine.iterations", med(t.refine_iters), "count");
  put("refine.ms", med(t.refine_ms), "ms");

  const SpillStats& s0 = t.spill_before;
  const SpillStats& s1 = t.spill_after;
  put("storage.prefetch_hit_rate",
      ratio(s1.step_hits - s0.step_hits,
            s1.step_hits - s0.step_hits + s1.step_misses - s0.step_misses),
      "1");
  put("storage.demand_faults", static_cast<double>(s1.faults - s0.faults),
      "count");
  put("storage.read_mb_per_solve",
      mb(s1.fault_bytes - s0.fault_bytes + s1.prefetch_bytes -
         s0.prefetch_bytes) / std::max(1, t.solves),
      "MB");
  put("storage.peak_resident_mb", mb(s1.peak_resident_bytes), "MB");
  put("storage.spilled_mb", mb(s1.spilled_bytes), "MB");

  put("check.rel_residual", t.rel_residual, "1");
  print_accuracy(w, t.rel_residual);

  put("trace.setup_overhead_s", t.tree_s + t.h2_s + t.factor_s - setup_off,
      "s");
  put("trace.solve_overhead_ms", median(t.solve_ms) - solve_off, "ms");
  return m;
}

// ------------------------------------------------------------------ main

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --scratch <dir>\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) try {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      for (const Workload& w : kWorkloads)
        if (v == w.name) a.w = &w;
      if (a.w == nullptr) usage("unknown workload");
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--scratch") {
      a.scratch = v;
    } else {
      usage("unknown argument");
    }
  }
  if (a.w == nullptr || a.scratch.empty()) usage("missing argument");
  return a;
} catch (const std::logic_error&) {  // std::stoull / std::stod
  usage("bad number");
}

void print_result(const Ledger& led, const Metrics& m) {
  bool finite = true;
  for (const Metric& x : m) {
    std::printf("metric %-28s %14.6g %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
    finite = finite && std::isfinite(x.value);
  }
  for (const std::string& note : led.notes())
    std::printf("failure %s\n", note.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
      led.failed() == 0 && finite ? "true" : "false", led.attempted(),
      led.failed());
  for (std::size_t i = 0; i < m.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m[i].name.c_str(),
                std::isfinite(m[i].value) ? m[i].value : -1.0,
                m[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const double steal0 = steal_seconds();
  Ledger led;
  Metrics m;
  try {
    m = a.trace ? run_traced(a, led)
        : std::strcmp(a.w->name, "serve") == 0 ? run_serve(a, led)
                                               : run_single(a, led);
  } catch (const std::exception& e) {
    // counted() has charged the failed operation already; anything else
    // aborted the run outside one, so charge the run itself.
    std::printf("failure aborted run: %s\n", e.what());
    if (led.failed() == 0) {
      led.attempt();
      led.fail(e.what());
    }
  }
  std::printf("host cpu steal %.2f s during the run\n",
              steal_seconds() - steal0);
  print_result(led, m);
  return led.failed() == 0 ? 0 : 1;
}
