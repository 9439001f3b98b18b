// The serving tier (src/server/): factorization cache correctness (hits
// bitwise-identical to cold builds, parameterized kernels never collide,
// eviction under a tight budget cannot break an in-flight solve), admission
// batching (a deadline-coalesced batch equals the same requests solved
// serially, bit for bit), the width-stable solve contract underneath it,
// and the ServerStats metrics surface. The concurrency tests double as the
// TSan/ASan coverage of the admission queue and eviction paths.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include <unistd.h>

#include "linalg/error.hpp"
#include "server/server.hpp"
#include "test_helpers.hpp"

namespace h2 {
namespace {

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<std::size_t>(a.rows()) *
                         static_cast<std::size_t>(a.cols())) == 0;
}

Matrix column(const Matrix& m, int j) {
  Matrix c(m.rows(), 1);
  std::memcpy(c.data(), m.view().col(j),
              sizeof(double) * static_cast<std::size_t>(m.rows()));
  return c;
}

SolverOptions cheap_opts() {
  return SolverOptions{}.with_tol(1e-6).with_max_rank(60);
}

TEST(WidthStableSolve, BatchColumnsBitwiseEqualSingleRhsSolves) {
  // The primitive the server's determinism contract rests on: with
  // width_stable_solve, gemm dispatch ignores nrhs, so each solution
  // column's bits are independent of how many columns ride along.
  Rng rng(11);
  const PointCloud pts = uniform_cube(512, rng);
  const LaplaceKernel kern(1e-2);
  const Solver s =
      Solver::build(pts, kern, cheap_opts().with_width_stable_solve(true));
  const Matrix b = Matrix::random(512, 12, rng);
  const Matrix x = s.solve(b);
  for (int j = 0; j < b.cols(); ++j)
    EXPECT_TRUE(bitwise_equal(column(x, j), s.solve(column(b, j)))) << j;
}

TEST(ServerCache, HitReturnsBitwiseIdenticalSolutionsToColdBuild) {
  Rng rng(3);
  const PointCloud pts = uniform_cube(512, rng);
  const LaplaceKernel kern(1e-2);
  const Matrix b = Matrix::random(512, 1, rng);

  Server server;
  const Server::FactorHandle cold = server.acquire(pts, kern, cheap_opts());
  const Matrix x_cold = server.solve(cold, b);

  const Server::FactorHandle hit = server.acquire(pts, kern, cheap_opts());
  const Matrix x_hit = server.solve(hit, b);
  EXPECT_TRUE(bitwise_equal(x_cold, x_hit));

  // A private facade build with the same numerics (the server always
  // forces width_stable_solve) agrees bitwise
  // — the cache changes WHERE the factorization lives, never the answer.
  const Solver private_build =
      Solver::build(pts, kern, cheap_opts().with_width_stable_solve(true));
  EXPECT_TRUE(bitwise_equal(x_cold, private_build.solve(b)));

  const ServerStats st = server.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_GT(st.resident_bytes, 0u);
}

TEST(ServerCache, KernelParametersAndOptionsDiscriminateEntries) {
  // Same kernel NAME, different parameter: the probe digest must separate
  // them (a name-only key would serve one kernel's answers for the other).
  Rng rng(4);
  const PointCloud pts = uniform_cube(256, rng);
  Server server;
  (void)server.acquire(pts, LaplaceKernel(1e-2), cheap_opts());
  (void)server.acquire(pts, LaplaceKernel(2e-2), cheap_opts());
  // Numerics options discriminate too; execution knobs do not.
  (void)server.acquire(pts, LaplaceKernel(1e-2), cheap_opts().with_tol(1e-4));
  (void)server.acquire(pts, LaplaceKernel(1e-2), cheap_opts().with_workers(2));
  const ServerStats st = server.stats();
  EXPECT_EQ(st.misses, 3u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.entries, 3u);
}

TEST(ServerCache, EvictionUnderTightBudgetNeverInvalidatesHeldHandle) {
  // Budget of one byte: every completed build evicts everything else. A
  // handle acquired before the churn must keep solving — bitwise stably —
  // while entries fall out of the cache around it, including DURING its
  // solves (the concurrent churn thread).
  Rng rng(6);
  const PointCloud pts = uniform_cube(384, rng);
  const LaplaceKernel kern(1e-2);
  const Matrix b = Matrix::random(384, 1, rng);

  Server server(ServerOptions{}.with_cache_budget_bytes(1));
  const Server::FactorHandle f = server.acquire(pts, kern, cheap_opts());
  const Matrix x_ref = server.solve(f, b);

  std::vector<Matrix> during;
  std::thread solver_thread([&] {
    for (int i = 0; i < 24; ++i) during.push_back(server.solve(f, b));
  });
  for (int i = 0; i < 6; ++i) {
    Rng r2(100 + i);
    const PointCloud other = uniform_cube(256, r2);
    (void)server.acquire(other, kern, cheap_opts());  // evicts predecessors
  }
  solver_thread.join();

  const ServerStats st = server.stats();
  EXPECT_GE(st.evictions, 5u);
  EXPECT_EQ(st.entries, 1u);  // only the newest survives a 1-byte budget
  for (const Matrix& x : during) EXPECT_TRUE(bitwise_equal(x, x_ref));

  // The handle's entry was itself evicted by the churn; shared ownership
  // keeps it serving identically after the cache let go.
  EXPECT_TRUE(bitwise_equal(server.solve(f, b), x_ref));
  EXPECT_GT(f.resident_bytes(), 0u);
}

TEST(ServerAdmission, CoalescedBatchBitwiseEqualsSerialSolves) {
  // T concurrent single-RHS requests: whatever mix of solo sweeps and
  // deadline-coalesced batches the timing produces, every answer must be
  // bitwise the serial one. The retry loop additionally demands we actually
  // OBSERVE a coalesced sweep (width >= 2) at least once.
  Rng rng(8);
  const PointCloud pts = uniform_cube(512, rng);
  const LaplaceKernel kern(1e-2);
  const int kThreads = 8;
  const Matrix b = Matrix::random(512, kThreads, rng);

  Server server(
      ServerOptions{}.with_batch_deadline_us(20000).with_max_batch(4));
  const Server::FactorHandle f = server.acquire(pts, kern, cheap_opts());

  std::vector<Matrix> serial;
  for (int j = 0; j < kThreads; ++j)
    serial.push_back(f.solver().solve(column(b, j)));

  for (int round = 0; round < 50; ++round) {
    std::vector<Matrix> got(kThreads);
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int j = 0; j < kThreads; ++j)
      clients.emplace_back(
          [&, j] { got[static_cast<std::size_t>(j)] = server.solve(f, column(b, j)); });
    for (std::thread& t : clients) t.join();
    for (int j = 0; j < kThreads; ++j)
      ASSERT_TRUE(bitwise_equal(got[static_cast<std::size_t>(j)],
                                serial[static_cast<std::size_t>(j)]))
          << "round " << round << " column " << j;
    if (server.stats().coalesced_requests > 0) break;
  }
  const ServerStats st = server.stats();
  EXPECT_GT(st.coalesced_requests, 0u) << "no coalesced sweep in 50 rounds";
  EXPECT_EQ(st.queue_depth, 0u);
  // Every request above went through width <= max_batch sweeps.
  for (int bkt = 3; bkt < ServerStats::kBatchBuckets; ++bkt)
    EXPECT_EQ(st.batch_hist[static_cast<std::size_t>(bkt)], 0u);
}

TEST(ServerAdmission, MultiColumnRequestsBypassTheQueue) {
  Rng rng(9);
  const PointCloud pts = uniform_cube(384, rng);
  const LaplaceKernel kern(1e-2);
  const Matrix b = Matrix::random(384, 3, rng);
  Server server;
  const Server::FactorHandle f = server.acquire(pts, kern, cheap_opts());
  EXPECT_TRUE(bitwise_equal(server.solve(f, b), f.solver().solve(b)));
  const ServerStats st = server.stats();
  EXPECT_EQ(st.rhs_served, 3u);
  EXPECT_EQ(st.backend_solves, 1u);
  EXPECT_EQ(st.batch_hist[2], 1u);  // one sweep in the 3-4 bucket
}

TEST(ServerStatsSurface, CountsAndLatencyPercentilesPopulate) {
  Rng rng(10);
  const PointCloud pts = uniform_cube(256, rng);
  const LaplaceKernel kern(1e-2);
  Server server;
  const Server::FactorHandle f = server.acquire(pts, kern, cheap_opts());
  const Matrix b = Matrix::random(256, 1, rng);
  for (int i = 0; i < 5; ++i) (void)server.solve(f, b);
  const ServerStats st = server.stats();
  EXPECT_EQ(st.requests, 5u);
  EXPECT_EQ(st.rhs_served, 5u);
  EXPECT_EQ(st.backend_solves, 5u);
  EXPECT_EQ(st.batch_hist[0], 5u);
  EXPECT_EQ(st.budget_bytes, server.options().cache_budget_bytes);
  EXPECT_GT(st.p50_ms, 0.0);
  EXPECT_GE(st.p99_ms, st.p50_ms);

  EXPECT_EQ(server.clear(), 1u);
  EXPECT_EQ(server.stats().entries, 0u);
  EXPECT_EQ(server.stats().evictions, 1u);
  // The handle survives clear() like any eviction.
  (void)server.solve(f, b);
}

TEST(ServerConcurrency, ManyClientsTwoProblemsStayIsolated) {
  // N threads hammer two different factorizations through one server —
  // acquire (all hits after the first) + coalesced solves, interleaved.
  // Answers must never cross problems and must match the serial references.
  Rng rng(12);
  const PointCloud pts_a = uniform_cube(384, rng);
  const PointCloud pts_b = uniform_cube(384, rng);
  const LaplaceKernel kern(1e-2);
  const Matrix rhs = Matrix::random(384, 1, rng);

  Server server;
  const Server::FactorHandle fa = server.acquire(pts_a, kern, cheap_opts());
  const Server::FactorHandle fb = server.acquire(pts_b, kern, cheap_opts());
  const Matrix ref_a = fa.solver().solve(rhs);
  const Matrix ref_b = fb.solver().solve(rhs);
  ASSERT_FALSE(bitwise_equal(ref_a, ref_b));

  const int kThreads = 8;
  std::vector<int> bad(kThreads, 0);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 6; ++i) {
        const bool use_a = (t + i) % 2 == 0;
        const Server::FactorHandle f =
            server.acquire(use_a ? pts_a : pts_b, kern, cheap_opts());
        const Matrix x = server.solve(f, rhs);
        if (!bitwise_equal(x, use_a ? ref_a : ref_b))
          ++bad[static_cast<std::size_t>(t)];
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(bad[static_cast<std::size_t>(t)], 0) << t;
  const ServerStats st = server.stats();
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.hits, static_cast<std::uint64_t>(kThreads) * 6);
  EXPECT_EQ(st.queue_depth, 0u);
}

/// Scratch directory under the system temp dir (unique per process + use),
/// removed recursively on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    static int counter = 0;
    path = (std::filesystem::temp_directory_path() /
            ("h2-server-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter++)))
               .string();
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

TEST(ServerSpillTier, DemotedEntryPromotesBitwiseUnderConcurrentSolves) {
  // With a spill directory, a 1-byte budget demotes the older entry instead
  // of destroying it. The held handle must keep solving it (demand-faulting
  // from disk) bitwise; a later acquire of the same key must promote it —
  // exactly once, whatever the concurrency — WITHOUT a rebuild, and serve
  // bitwise the cold build's answers throughout.
  Rng rng(31);
  const PointCloud pts_a = uniform_cube(384, rng);
  const PointCloud pts_b = uniform_cube(256, rng);
  const LaplaceKernel kern(1e-2);
  const Matrix b = Matrix::random(384, 1, rng);
  TempDir tmp;

  Server server(ServerOptions{}
                    .with_cache_budget_bytes(1)
                    .with_spill_dir(tmp.path));
  const Server::FactorHandle fa = server.acquire(pts_a, kern, cheap_opts());
  const Matrix x_ref = server.solve(fa, b);

  // Building the second problem sheds the first — to disk, not to oblivion.
  (void)server.acquire(pts_b, kern, cheap_opts());
  {
    const ServerStats st = server.stats();
    EXPECT_EQ(st.demotions, 1u);
    EXPECT_EQ(st.demoted_entries, 1u);
    EXPECT_GT(st.demoted_bytes, 0u);
    EXPECT_GE(st.evictions, st.demotions) << "demotions must count as evictions";
  }
  // The held handle keeps the demoted entry solvable AND promotable.
  EXPECT_TRUE(bitwise_equal(server.solve(fa, b), x_ref));

  // Concurrent re-acquires + solves on the held handle: promotion is
  // single-flight (the counter says once), answers never waver.
  const int kThreads = 4;
  std::vector<int> bad(2 * kThreads, 0);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      const Server::FactorHandle f = server.acquire(pts_a, kern, cheap_opts());
      if (!bitwise_equal(server.solve(f, b), x_ref))
        ++bad[static_cast<std::size_t>(t)];
    });
    clients.emplace_back([&, t] {
      if (!bitwise_equal(server.solve(fa, b), x_ref))
        ++bad[static_cast<std::size_t>(kThreads + t)];
    });
  }
  for (std::thread& t : clients) t.join();
  for (int i = 0; i < 2 * kThreads; ++i)
    EXPECT_EQ(bad[static_cast<std::size_t>(i)], 0) << i;

  const ServerStats st = server.stats();
  EXPECT_EQ(st.promotions, 1u) << "promotion was not single-flight";
  EXPECT_EQ(st.misses, 2u) << "a demoted entry was rebuilt instead of promoted";
  // Counters reconcile: every promotion rode a hit; what was demoted is
  // either still demoted or was promoted back.
  EXPECT_GE(st.hits, st.promotions);
  EXPECT_EQ(st.demotions, st.promotions + st.demoted_entries);
}

TEST(ServerSpillTier, ClearDropsDemotedEntriesWithoutDoubleCounting) {
  Rng rng(32);
  const PointCloud pts_a = uniform_cube(256, rng);
  const PointCloud pts_b = uniform_cube(192, rng);
  const LaplaceKernel kern(1e-2);
  TempDir tmp;
  Server server(ServerOptions{}
                    .with_cache_budget_bytes(1)
                    .with_spill_dir(tmp.path));
  (void)server.acquire(pts_a, kern, cheap_opts());
  (void)server.acquire(pts_b, kern, cheap_opts());  // demotes pts_a's entry
  ASSERT_EQ(server.stats().demoted_entries, 1u);
  ASSERT_EQ(server.stats().entries, 1u);  // the resident gauge excludes it

  EXPECT_EQ(server.clear(), 2u);  // both entries dropped...
  const ServerStats st = server.stats();
  EXPECT_EQ(st.entries, 0u);
  EXPECT_EQ(st.demoted_entries, 0u);
  EXPECT_EQ(st.demoted_bytes, 0u);
  // ...but the demoted one was already counted when it left RAM.
  EXPECT_EQ(st.evictions, 2u);
  EXPECT_EQ(st.demotions, 1u);
}

TEST(ServerApi, EmptyHandleAndBadOptionsThrow) {
  Server server;
  const Server::FactorHandle empty;
  EXPECT_FALSE(empty.valid());
  Matrix b(4, 1);
  EXPECT_THROW((void)server.solve(empty, b), std::logic_error);
  EXPECT_THROW((void)empty.solver(), std::logic_error);
  EXPECT_THROW(Server(ServerOptions{}.with_max_batch(0)), std::invalid_argument);
  EXPECT_THROW(Server(ServerOptions{}.with_batch_deadline_us(-1)),
               std::invalid_argument);
  EXPECT_THROW(Server(ServerOptions{}.with_cache_budget_bytes(0)),
               std::invalid_argument);
  EXPECT_THROW(Server(ServerOptions{}.with_spill_dir("/nonexistent/h2-spill")),
               std::invalid_argument);
}

TEST(ServerApi, FailedBuildThrowsToTheCallerAndLeavesNoEntry) {
  // A cloud whose factorization hits an exactly singular pivot (every odd
  // point duplicates its predecessor) fails its acquire on the caller;
  // the cache keeps no poisoned entry, so the server serves on.
  Rng rng(12);
  PointCloud bad = uniform_cube(1024, rng);
  for (std::size_t i = 1; i < bad.size(); i += 2) bad[i] = bad[i - 1];
  const PointCloud good = uniform_cube(512, rng);
  const LaplaceKernel kern(1e-2);
  Server server;
  EXPECT_THROW((void)server.acquire(bad, kern, cheap_opts().with_workers(2)),
               NumericalError);
  EXPECT_THROW((void)server.acquire(bad, kern, cheap_opts().with_workers(2)),
               NumericalError)
      << "a failed build must be retried, not served from the cache";
  const Server::FactorHandle h = server.acquire(good, kern, cheap_opts());
  ASSERT_TRUE(h.valid());
  const Matrix b = Matrix::random(512, 1, rng);
  const Matrix x = server.solve(h, b);
  EXPECT_EQ(x.rows(), 512);
}

TEST(ServerCache, DigestCoversEveryNumericsOptionAndNoExecutionKnob) {
  // Regression audit of the factorization-cache key: EVERY option that can
  // change a solution's bits must perturb the digest (a collision would
  // serve one configuration's answers for another), and options that only
  // change HOW the identical bits are computed must not (an over-keyed
  // cache silently stops amortizing). Adding a numerics field to
  // SolverOptions without teaching digest_options about it fails here.
  Rng rng(6);
  const PointCloud pts = uniform_cube(256, rng);
  const LaplaceKernel kern(1e-2);
  Server server;
  (void)server.acquire(pts, kern, cheap_opts());
  std::uint64_t want_misses = 1;
  auto expect_miss = [&](const SolverOptions& o, const char* what) {
    (void)server.acquire(pts, kern, o);
    ++want_misses;
    EXPECT_EQ(server.stats().misses, want_misses) << "numerics knob '" << what
                                                  << "' did not miss";
  };
  auto expect_hit = [&](const SolverOptions& o, const char* what) {
    (void)server.acquire(pts, kern, o);
    EXPECT_EQ(server.stats().misses, want_misses)
        << "execution knob '" << what << "' perturbed the cache key";
  };
  // Numerics-relevant: each perturbation must build a new entry.
  expect_miss(cheap_opts().with_structure(SolverStructure::HODLR), "structure");
  expect_miss(cheap_opts().with_leaf_size(64), "leaf_size");
  expect_miss(cheap_opts().with_partitioner(Partitioner::Morton),
              "partitioner");
  expect_miss(cheap_opts().with_seed(7), "seed");
  expect_miss(cheap_opts().with_eta(1.25), "eta");
  expect_miss(cheap_opts().with_tol(1e-5), "tol");
  expect_miss(cheap_opts().with_build_tol_factor(5e-2), "build_tol_factor");
  expect_miss(cheap_opts().with_max_rank(40), "max_rank");
  expect_miss(cheap_opts().with_mode(UlvMode::Sequential), "mode");
  {
    SolverOptions o = cheap_opts();
    o.fill_tol_factor = 0.5;
    expect_miss(o, "fill_tol_factor");
  }
  {
    SolverOptions o = cheap_opts();
    o.fillin_augmentation = false;
    expect_miss(o, "fillin_augmentation");
  }
  expect_miss(cheap_opts().with_precision(Precision::F32), "precision");
  expect_miss(cheap_opts()
                  .with_precision(Precision::F32)
                  .with_refine_tol(1e-7),
              "refine_tol");
  expect_miss(cheap_opts()
                  .with_precision(Precision::F32)
                  .with_max_refine_iters(2),
              "max_refine_iters");
  // Execution-only: identical bits by the determinism contract, so the
  // first entry must be reused.
  expect_hit(cheap_opts().with_executor(UlvExecutor::PhaseLoops), "executor");
  expect_hit(cheap_opts().with_workers(3), "n_workers");
  expect_hit(cheap_opts().with_record_tasks(true), "record_tasks");
  expect_hit(cheap_opts().with_spill_budget_mb(512.0), "spill_budget_mb");
  expect_hit(cheap_opts().with_spill_threads(3), "spill_threads");
}

}  // namespace
}  // namespace h2
