// The storage tier (src/storage/): out-of-core factorization correctness —
// solves with the spill/prefetch store enabled are bitwise identical to
// in-RAM across DAG shapes, worker counts and inline solves while resident
// factor bytes stay under the budget (plus one block of slack);
// demote/promote round-trips; fault injection (truncated files, corrupted
// payloads, a full disk) turning
// into diagnosable errors that name the file and block, never a silently
// wrong answer; and spill-file cleanup on destruction including error paths.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "api/solver.hpp"
#include "storage/spill_store.hpp"
#include "test_helpers.hpp"

namespace h2 {
namespace {

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<std::size_t>(a.rows()) *
                         static_cast<std::size_t>(a.cols())) == 0;
}

SolverOptions cheap_opts() {
  return SolverOptions{}.with_tol(1e-6).with_max_rank(60);
}

/// Scratch directory under the system temp dir (unique per process + use),
/// removed recursively on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    static int counter = 0;
    path = (std::filesystem::temp_directory_path() /
            ("h2-storage-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter++)))
               .string();
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

TEST(OutOfCore, BitwiseIdenticalToInRamAcrossExecutorsAndWorkers) {
  // The tentpole contract: spilling moves factor bytes, never transforms
  // them, so an out-of-core solve at HALF the in-RAM factor footprint must
  // reproduce the in-RAM answer bit for bit — under both DAG shapes, serial
  // and parallel — while the store's resident gauge respects the budget up
  // to one block of slack.
  Rng rng(21);
  const PointCloud pts = uniform_cube(512, rng);
  const LaplaceKernel kern(1e-2);
  const Matrix b = Matrix::random(512, 2, rng);

  const Solver ref = Solver::build(pts, kern, cheap_opts());
  const Matrix x_ref = ref.solve(b);
  const double ld_ref = ref.logabsdet();
  const UlvStats* rst = ref.ulv_stats();
  ASSERT_NE(rst, nullptr);
  ASSERT_GT(rst->final_block_bytes, 0u);
  const double budget_mb =
      0.5 * static_cast<double>(rst->final_block_bytes) / (1 << 20);

  TempDir tmp;
  struct Cfg {
    UlvExecutor ex;
    int workers;
  };
  const Cfg cfgs[] = {{UlvExecutor::TaskDag, 1},
                      {UlvExecutor::TaskDag, 4},
                      {UlvExecutor::PhaseLoops, 1},
                      {UlvExecutor::PhaseLoops, 4}};
  for (const Cfg& c : cfgs) {
    const Solver s = Solver::build(pts, kern,
                                   cheap_opts()
                                       .with_executor(c.ex)
                                       .with_workers(c.workers)
                                       .with_spill_dir(tmp.path)
                                       .with_spill_budget_mb(budget_mb)
                                       .with_spill_threads(2));
    EXPECT_TRUE(bitwise_equal(s.solve(b), x_ref))
        << "executor " << static_cast<int>(c.ex) << " workers " << c.workers;
    EXPECT_EQ(s.logabsdet(), ld_ref);

    const SpillStats ss = s.spill_stats();
    EXPECT_GT(ss.blocks, 0u);
    EXPECT_GT(ss.spilled_blocks, 0u) << "nothing ever hit the disk";
    EXPECT_GT(ss.evictions, 0u) << "budget never forced a payload out";
    EXPECT_LE(ss.budget_bytes, rst->final_block_bytes / 2 + 1);
    // The acceptance bound: over the serve phase, resident factor bytes
    // never exceed the budget by more than one (required) block.
    EXPECT_LE(ss.peak_resident_bytes, ss.budget_bytes + ss.max_block_bytes);

    // UlvStats carries the adoption totals for operators reading ulv_stats.
    const UlvStats* st = s.ulv_stats();
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->spilled_blocks, ss.blocks);
    EXPECT_EQ(st->spilled_bytes, ss.block_bytes);
  }
}

TEST(OutOfCore, InlineSolveMatchesDagSolveInRamAndSpilled) {
  // solve_async on the default wiring pipelines on the global pool, so the
  // solve graph runs inline on that worker — spill step tasks included.
  // It must reproduce the pool-executed DAG solve bit for bit, both with
  // the whole factor resident and through a pure disk tier.
  Rng rng(24);
  const PointCloud pts = uniform_cube(512, rng);
  const LaplaceKernel kern(1e-2);
  const Matrix b = Matrix::random(512, 2, rng);
  TempDir tmp;
  for (const bool spill : {false, true}) {
    SolverOptions o = cheap_opts();
    if (spill) o = o.with_spill_dir(tmp.path).with_spill_budget_mb(0.0);
    const Solver s = Solver::build(pts, kern, o);
    const Matrix x_dag = s.solve(b);
    const SpillStats before = s.spill_stats();
    SolveHandle h = s.solve_async(b);
    EXPECT_TRUE(bitwise_equal(h.get(), x_dag))
        << (spill ? "spilled" : "in RAM");
    EXPECT_TRUE(h.stats().records.empty()) << "inline solves publish no trace";
    if (spill) {
      // The inline run walked the spill steps too: a budget-0 tier faults.
      const SpillStats after = s.spill_stats();
      EXPECT_GT(after.step_misses + after.step_hits,
                before.step_misses + before.step_hits);
    }
  }
}

TEST(OutOfCore, DagSolveReportsPrefetchCounters) {
  Rng rng(22);
  const PointCloud pts = uniform_cube(512, rng);
  const LaplaceKernel kern(1e-2);
  const Matrix b = Matrix::random(512, 1, rng);
  TempDir tmp;
  // Budget 0: a pure disk tier, so every solve step must fault or prefetch —
  // the ExecStats deltas of the DAG solve have to see that traffic.
  const Solver s = Solver::build(
      pts, kern,
      cheap_opts().with_spill_dir(tmp.path).with_spill_budget_mb(0.0));
  const Matrix x = s.solve(b);
  (void)x;
  const ExecStats ex = s.last_solve_stats();
  EXPECT_GT(ex.prefetch_hits + ex.prefetch_misses, 0u);
  const SpillStats ss = s.spill_stats();
  EXPECT_EQ(ex.prefetch_hits + ex.prefetch_misses, ss.step_hits + ss.step_misses);
}

TEST(OutOfCore, DemotePromoteRoundTripIsBitwise) {
  Rng rng(23);
  const PointCloud pts = uniform_cube(384, rng);
  const LaplaceKernel kern(1e-2);
  const Matrix b = Matrix::random(384, 1, rng);
  TempDir tmp;

  // Built fully in RAM (no spill configured): demotion attaches the store
  // lazily, registers every factor block, and drains it to disk.
  Solver s = Solver::build(pts, kern, cheap_opts());
  const Matrix x_ref = s.solve(b);
  EXPECT_EQ(s.spill_stats().blocks, 0u);

  ASSERT_TRUE(s.demote_to_disk(tmp.path));
  EXPECT_GT(s.spill_stats().blocks, 0u);
  EXPECT_EQ(s.spill_stats().resident_bytes, 0u) << "demotion left bytes in RAM";
  // A demoted factorization still serves (demand-faulting per step)...
  EXPECT_TRUE(bitwise_equal(s.solve(b), x_ref));
  // ...and promotes back wholesale.
  s.promote();
  EXPECT_GT(s.spill_stats().resident_bytes, 0u);
  EXPECT_TRUE(bitwise_equal(s.solve(b), x_ref));
  EXPECT_EQ(s.logabsdet(), Solver::build(pts, kern, cheap_opts()).logabsdet());

  // Backends without the block store have no disk tier to demote into.
  Solver blr = Solver::build(
      pts, kern, cheap_opts().with_structure(SolverStructure::BLR));
  EXPECT_FALSE(blr.demote_to_disk(tmp.path));
}

TEST(OutOfCore, OptionsValidationRejectsBadSpillConfig) {
  Rng rng(24);
  const PointCloud pts = uniform_cube(64, rng);
  const LaplaceKernel kern(1e-2);
  TempDir tmp;
  EXPECT_THROW(
      Solver::build(pts, kern,
                    cheap_opts().with_spill_dir("/nonexistent/h2-spill")),
      std::invalid_argument);
  EXPECT_THROW(Solver::build(pts, kern, cheap_opts().with_spill_budget_mb(-1)),
               std::invalid_argument);
  EXPECT_THROW(
      Solver::build(
          pts, kern,
          cheap_opts().with_spill_dir(tmp.path).with_spill_threads(0)),
      std::invalid_argument);
  // Zero writer threads without a spill tier is inert, not an error.
  (void)Solver::build(pts, kern, cheap_opts().with_spill_threads(0));
}

TEST(OutOfCore, SpillFilesCleanedUpOnSolverDestruction) {
  Rng rng(25);
  const PointCloud pts = uniform_cube(256, rng);
  const LaplaceKernel kern(1e-2);
  const Matrix b = Matrix::random(256, 1, rng);
  TempDir tmp;
  {
    const Solver s = Solver::build(
        pts, kern,
        cheap_opts().with_spill_dir(tmp.path).with_spill_budget_mb(0.0));
    (void)s.solve(b);
    EXPECT_FALSE(std::filesystem::is_empty(tmp.path))
        << "no spill directory was ever created";
  }
  EXPECT_TRUE(std::filesystem::is_empty(tmp.path))
      << "solver destruction left spill files behind";
}

TEST(SpillStoreFaults, TruncatedFileThrowsNamingFileAndBlock) {
  TempDir tmp;
  std::string dir;
  {
    Rng rng(26);
    Matrix m = Matrix::random(24, 16, rng);
    SpillStore store({tmp.path, 1ull << 30, 1});
    dir = store.directory();
    const SpillStore::SlotId id = store.adopt(&m, "dense L1 (0,0)");
    store.quiesce();
    store.set_budget(0);  // payload dropped; the file is now the only copy
    ASSERT_EQ(store.stats().resident_bytes, 0u);

    std::filesystem::resize_file(store.file_path(id), 10);
    try {
      store.pin({id});
      FAIL() << "reading a truncated spill file did not throw";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
      EXPECT_NE(msg.find(store.file_path(id)), std::string::npos) << msg;
      EXPECT_NE(msg.find("dense L1 (0,0)"), std::string::npos) << msg;
    }
    // The store is poisoned: every entry point rethrows, nothing serves a
    // half-read block.
    EXPECT_THROW(store.pin({id}), std::runtime_error);
    EXPECT_THROW(store.quiesce(), std::runtime_error);
  }
  EXPECT_FALSE(std::filesystem::exists(dir))
      << "failed store left its directory behind";
}

TEST(SpillStoreFaults, CorruptPayloadFailsTheChecksum) {
  TempDir tmp;
  Rng rng(27);
  Matrix m = Matrix::random(24, 16, rng);
  SpillStore store({tmp.path, 1ull << 30, 1});
  const SpillStore::SlotId id = store.adopt(&m, "q L2 c3");
  store.quiesce();
  store.set_budget(0);

  {  // Flip one payload byte behind the 40-byte header.
    std::fstream f(store.file_path(id),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(40 + 100);
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(40 + 100);
    f.write(&c, 1);
  }
  try {
    store.pin({id});
    FAIL() << "reading a corrupt spill file did not throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("checksum mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find(store.file_path(id)), std::string::npos) << msg;
    EXPECT_NE(msg.find("q L2 c3"), std::string::npos) << msg;
  }
}

TEST(SpillStoreFaults, FullDiskSurfacesOnQuiesceNamingFileAndBlock) {
  TempDir tmp;
  std::string dir;
  std::string path;
  {
    Rng rng(28);
    Matrix m = Matrix::random(24, 16, rng);
    SpillStore store({tmp.path, 1ull << 30, 1});
    dir = store.directory();
    store.fail_next_writes_for_testing(1);
    const SpillStore::SlotId id = store.adopt(&m, "top_lu");
    path = store.file_path(id);
    try {
      store.quiesce();
      FAIL() << "an out-of-space spill write did not surface";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("No space left on device"), std::string::npos) << msg;
      EXPECT_NE(msg.find(path), std::string::npos) << msg;
      EXPECT_NE(msg.find("top_lu"), std::string::npos) << msg;
    }
    EXPECT_THROW(store.adopt(&m, "again"), std::runtime_error);
  }
  // Cleanup on the throw path too: the half-written file and the directory
  // are gone with the store.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(dir));
}

}  // namespace
}  // namespace h2
