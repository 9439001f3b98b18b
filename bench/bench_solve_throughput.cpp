/// Solve-side throughput: fast direct solvers earn their keep on SOLVE
/// REUSE — one factorization amortized over many right-hand sides (Ho &
/// Greengard). This harness factorizes once and measures RHS/s three ways:
///
///   1. single-RHS latency (nrhs=1, back to back),
///   2. blocked multi-RHS (one solve carrying many columns),
///   3. pipelined batches (independent solves running concurrently on a
///      shared pool — the h2::Solver::solve_batch path),
///
/// each under BOTH DAG shapes (the free recorded DAG vs the bulk-synchronous
/// shape with a barrier per level and phase) and several worker counts. All
/// cells produce bitwise-identical solutions; only the schedule differs.
/// Writes solve_throughput.csv and BENCH_SOLVE.json (the solve-side perf
/// trajectory seed).
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/thread_pool.hpp"

#include "bench_common.hpp"

namespace {

struct Cell {
  std::string mode;       // "latency" / "blocked" / "pipelined"
  std::string executor;   // DAG shape: "dag" (free) / "bulk" (barriers)
  int workers;
  int n_solves;
  int nrhs_per_solve;
  double seconds;
  [[nodiscard]] double rhs_per_s() const {
    return n_solves * nrhs_per_solve / seconds;
  }
};

}  // namespace

int main() {
  using namespace h2;
  using namespace h2::bench;

  const int n = static_cast<int>(2048 * scale());
  const int reps = static_cast<int>(env::get_int("H2_SOLVE_REPS", 16));
  Rng rng(42);
  const PointCloud pts = uniform_cube(n, rng);
  const LaplaceKernel kernel(1e-4);
  SolverConfig cfg;
  cfg.tol = 1e-6;

  const ClusterTree tree = ClusterTree::build(pts, cfg.leaf, rng);
  H2BuildOptions ho;
  ho.admissibility = {Admissibility::Strong, cfg.eta};
  ho.tol = 1e-2 * cfg.tol;
  ho.max_rank = cfg.max_rank;
  const H2Matrix a(tree, kernel, ho);

  // One factorization per shape; the factors themselves are bitwise
  // identical (ulv_dag_test), so every cell solves the same operator.
  auto factor = [&](UlvExecutor shape, ThreadPool* pool) {
    UlvOptions uo;
    uo.tol = cfg.tol;
    uo.max_rank = cfg.max_rank;
    uo.executor = shape;
    uo.pool = pool;
    return std::make_unique<UlvFactorization>(a, uo);
  };

  const Matrix b1 = Matrix::random(n, 1, rng);
  const Matrix b_block = Matrix::random(n, reps, rng);

  std::vector<Cell> cells;
  Matrix x_ref, x_block_ref;  // bitwise cross-checks across every cell
  bool diverged = false;
  for (const UlvExecutor shape :
       {UlvExecutor::PhaseLoops, UlvExecutor::TaskDag}) {
    const char* ename = shape == UlvExecutor::TaskDag ? "dag" : "bulk";
    for (const int workers : {1, 4}) {
      ThreadPool pool(workers);
      const auto f = factor(shape, &pool);

      // 1. Single-RHS latency, back to back.
      {
        Matrix x = b1;
        Timer t;
        for (int r = 0; r < reps; ++r) {
          x = b1;
          f->solve(x);
        }
        cells.push_back({"latency", ename, workers, reps, 1, t.seconds()});
        if (x_ref.empty()) x_ref = x;
        if (rel_error_fro(x, x_ref) != 0.0) {
          std::printf("!! shape %s/%d diverged on nrhs=1\n", ename, workers);
          diverged = true;
        }
      }
      // 2. One blocked solve carrying `reps` columns.
      {
        Matrix x = b_block;
        Timer t;
        f->solve(x);
        cells.push_back({"blocked", ename, workers, 1, reps, t.seconds()});
        if (x_block_ref.empty()) x_block_ref = x;
        if (rel_error_fro(x, x_block_ref) != 0.0) {
          std::printf("!! blocked %s/%d diverged\n", ename, workers);
          diverged = true;
        }
      }
      // 3. Pipelined independent solves: whole solves run concurrently on
      //    the pool's workers (each runs its solve graph inline on its
      //    worker — the h2::Solver::solve_batch / solve_async path).
      {
        std::vector<Matrix> xs(reps, b1);
        Timer t;
        for (int r = 0; r < reps; ++r)
          pool.submit([&f, &xs, r] { f->solve(xs[r]); });
        pool.wait_idle();
        cells.push_back({"pipelined", ename, workers, reps, 1, t.seconds()});
        for (const Matrix& x : xs)
          if (rel_error_fro(x, x_ref) != 0.0) {
            std::printf("!! pipelined %s/%d diverged\n", ename, workers);
            diverged = true;
          }
      }
    }
  }

  Table t({"mode", "DAG shape", "workers", "solves", "nrhs/solve",
           "total (s)", "RHS/s"});
  for (const Cell& c : cells)
    t.add_row({c.mode, c.executor, std::to_string(c.workers),
               std::to_string(c.n_solves), std::to_string(c.nrhs_per_solve),
               Table::fmt(c.seconds, 4), Table::fmt(c.rhs_per_s(), 1)});
  char title[128];
  std::snprintf(title, sizeof(title),
                "Solve throughput, N=%d, tol=%.0e (%d RHS per cell)", n,
                cfg.tol, reps);
  emit(t, title, "solve_throughput");

  // JSON trajectory seed: one self-contained record per cell.
  std::ofstream js("BENCH_SOLVE.json");
  js << "{\n  \"bench\": \"solve_throughput\",\n  \"n\": " << n
     << ",\n  \"tol\": " << cfg.tol
     << ",\n  \"host_cores\": " << std::thread::hardware_concurrency()
     << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    js << "    {\"mode\": \"" << c.mode << "\", \"executor\": \"" << c.executor
       << "\", \"workers\": " << c.workers << ", \"solves\": " << c.n_solves
       << ", \"nrhs_per_solve\": " << c.nrhs_per_solve
       << ", \"seconds\": " << c.seconds
       << ", \"rhs_per_s\": " << c.rhs_per_s() << "}"
       << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  js << "  ]\n}\n";
  std::printf("(JSON trajectory written to BENCH_SOLVE.json)\n");
  if (diverged) {
    std::printf("FAILED: DAG shapes disagreed — see !! lines above\n");
    return 1;
  }
  return 0;
}
