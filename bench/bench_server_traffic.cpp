/// Serving-tier traffic bench: synthetic open-loop Poisson arrivals against
/// one cached factorization, at increasing offered rates, in two admission
/// modes:
///
///   latency — every request solved the moment it arrives (coalesce off),
///   batched — concurrently-arriving single-RHS requests ride one blocked
///             sweep under the ~1 ms admission deadline (the h2::Server
///             default),
///
/// both under the server's bitwise (width-stable) contract, so the
/// comparison isolates pure batching: every cell's answers are bitwise
/// identical to the serial references, checked per request. Offered rates
/// are multiples of the measured single-RHS capacity mu; at saturation the
/// batched mode must sustain >= 1.5x the latency mode's throughput (the PR
/// acceptance bar — exit is nonzero otherwise, and nonzero on any bitwise
/// divergence). Writes server_traffic.csv and BENCH_SERVER.json (cells plus
/// per-rate batched/latency throughput ratios, one record per line for the
/// CI awk gate).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "server/server.hpp"

#include "bench_common.hpp"

namespace {

using namespace h2;

Matrix column(const Matrix& m, int j) {
  Matrix c(m.rows(), 1);
  std::memcpy(c.data(), m.view().col(j),
              sizeof(double) * static_cast<std::size_t>(m.rows()));
  return c;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<std::size_t>(a.rows())) == 0;
}

struct Cell {
  double rate_mult;   // offered rate as a multiple of single-RHS capacity
  const char* mode;   // "latency" / "batched"
  double offered_rps;
  double rps;         // achieved throughput (completed / wall)
  double p50_ms, p99_ms;
  double mean_batch;  // rhs_served / backend_solves
};

}  // namespace

int main() {
  using namespace h2::bench;

  const int n = static_cast<int>(2048 * scale());
  const int clients = static_cast<int>(env::get_int("H2_SERVER_CLIENTS", 8));
  const int requests = static_cast<int>(std::max<long>(
      48, env::get_int("H2_SERVER_REQUESTS", static_cast<long>(96 * scale()))));
  // Each cell replays its schedule this many times and reports the BEST
  // throughput: on a small shared host a single scheduler hiccup can halve
  // one replay's wall time, and stalls only ever push throughput down, so
  // max-of-reps is the stable estimator the CI ratio gate needs.
  const int reps = static_cast<int>(std::max<long>(1, env::get_int("H2_SERVER_REPS", 3)));
  const int distinct = 16;  // distinct rhs columns cycled through the traffic
  Rng rng(42);
  const PointCloud pts = uniform_cube(n, rng);
  const LaplaceKernel kernel(1e-4);
  SolverConfig cfg;
  cfg.tol = 1e-6;
  const SolverOptions sopt = SolverOptions{}
                                 .with_leaf_size(cfg.leaf)
                                 .with_eta(cfg.eta)
                                 .with_tol(cfg.tol)
                                 .with_max_rank(cfg.max_rank);
  const Matrix B = Matrix::random(n, distinct, rng);

  // Serial references + single-RHS capacity mu, measured under the same
  // width-stable solve every traffic cell runs under — so
  // rate multiples and the 1.5x bar are relative to what latency mode can
  // actually do, and every traffic answer can be checked bitwise.
  std::vector<Matrix> refs;
  double mu;
  {
    Server cal(ServerOptions{}.with_coalesce(false));
    const Server::FactorHandle f = cal.acquire(pts, kernel, sopt);
    refs.reserve(distinct);
    for (int j = 0; j < distinct; ++j)
      refs.push_back(f.solver().solve(column(B, j)));  // also warms the path
    const int cal_reps = 8;
    Timer t;
    for (int r = 0; r < cal_reps; ++r) (void)cal.solve(f, column(B, r % distinct));
    mu = cal_reps / t.seconds();
  }
  std::printf("N=%d, single-RHS capacity mu = %.1f solves/s "
              "(width-stable), %d clients, %d requests/cell\n",
              n, mu, clients, requests);

  std::atomic<int> divergent{0};
  auto run_cell = [&](double rate_mult, bool batched) -> Cell {
    const double rate = rate_mult * mu;
    Server server(batched ? ServerOptions{}
                          : ServerOptions{}.with_coalesce(false));
    const Server::FactorHandle f = server.acquire(pts, kernel, sopt);

    // Open-loop Poisson schedule: exponential inter-arrivals, seeded by the
    // rate only, so both modes replay the IDENTICAL arrival process.
    std::mt19937_64 g(static_cast<std::uint64_t>(rate_mult * 1024) + 7);
    std::exponential_distribution<double> inter(rate);
    std::vector<double> arrival(static_cast<std::size_t>(requests));
    double at = 0.0;
    for (double& a : arrival) a = (at += inter(g));

    double best_rps = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      std::vector<std::thread> cs;
      cs.reserve(static_cast<std::size_t>(clients));
      const auto t0 = std::chrono::steady_clock::now();
      for (int c = 0; c < clients; ++c) {
        cs.emplace_back([&, c] {
          for (int i = c; i < requests; i += clients) {
            std::this_thread::sleep_until(
                t0 + std::chrono::duration<double>(arrival[static_cast<std::size_t>(i)]));
            const Matrix x = server.solve(f, column(B, i % distinct));
            if (!bitwise_equal(x, refs[static_cast<std::size_t>(i % distinct)]))
              ++divergent;
          }
        });
      }
      for (std::thread& th : cs) th.join();
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
      best_rps = std::max(best_rps, requests / elapsed);
    }
    // Latency percentiles / batch shape come from the accumulated metrics
    // window across all replays — same arrival process each time.
    const ServerStats st = server.stats();
    return {rate_mult,
            batched ? "batched" : "latency",
            rate,
            best_rps,
            st.p50_ms,
            st.p99_ms,
            static_cast<double>(st.rhs_served) /
                static_cast<double>(std::max<std::uint64_t>(1, st.backend_solves))};
  };

  const std::vector<double> rate_mults = {0.25, 1.0, 2.0, 4.0};
  std::vector<Cell> cells;
  for (const double rm : rate_mults) {
    cells.push_back(run_cell(rm, /*batched=*/false));
    cells.push_back(run_cell(rm, /*batched=*/true));
  }

  Table t({"rate (x mu)", "mode", "offered req/s", "achieved req/s", "p50 (ms)",
           "p99 (ms)", "mean batch"});
  for (const Cell& c : cells)
    t.add_row({Table::fmt(c.rate_mult, 2), c.mode, Table::fmt(c.offered_rps, 1),
               Table::fmt(c.rps, 1), Table::fmt(c.p50_ms, 2),
               Table::fmt(c.p99_ms, 2), Table::fmt(c.mean_batch, 2)});
  char title[160];
  std::snprintf(title, sizeof(title),
                "Server traffic, N=%d, tol=%.0e, open-loop Poisson, %d clients",
                n, cfg.tol, clients);
  emit(t, title, "server_traffic");

  // Per-rate batched/latency throughput ratios: the host-portable trajectory
  // the CI gate diffs (both sides of each ratio are measured on one host).
  std::vector<std::pair<double, double>> ratios;
  for (std::size_t i = 0; i + 1 < cells.size(); i += 2)
    ratios.emplace_back(cells[i].rate_mult, cells[i + 1].rps / cells[i].rps);

  std::ofstream js("BENCH_SERVER.json");
  js << "{\n  \"bench\": \"server_traffic\",\n  \"n\": " << n
     << ",\n  \"tol\": " << cfg.tol << ",\n  \"clients\": " << clients
     << ",\n  \"requests_per_cell\": " << requests
     << ",\n  \"replays_per_cell\": " << reps
     << ",\n  \"host_cores\": " << std::thread::hardware_concurrency()
     << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    js << "    {\"rate_mult\": " << c.rate_mult << ", \"mode\": \"" << c.mode
       << "\", \"offered_rps\": " << c.offered_rps << ", \"rps\": " << c.rps
       << ", \"p50_ms\": " << c.p50_ms << ", \"p99_ms\": " << c.p99_ms
       << ", \"mean_batch\": " << c.mean_batch << "}"
       << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  js << "  ],\n  \"ratios\": [\n";
  for (std::size_t i = 0; i < ratios.size(); ++i)
    js << "    {\"rate_mult\": " << ratios[i].first
       << ", \"ratio\": " << ratios[i].second << "}"
       << (i + 1 < ratios.size() ? "," : "") << "\n";
  js << "  ]\n}\n";
  std::printf("(JSON trajectory written to BENCH_SERVER.json)\n");

  int failed = 0;
  if (divergent.load() != 0) {
    std::printf("FAILED: %d request(s) diverged bitwise from the serial "
                "references\n",
                divergent.load());
    failed = 1;
  }
  const double sat_ratio = ratios.back().second;
  std::printf("saturation check: batched/latency throughput at %.2gx mu = "
              "%.2fx (bar: >= 1.5x)\n",
              ratios.back().first, sat_ratio);
  if (sat_ratio < 1.5) {
    std::printf("FAILED: batched throughput under 1.5x latency mode at "
                "saturation\n");
    failed = 1;
  }
  return failed;
}
