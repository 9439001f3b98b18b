#include "api/solver.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "blr/blr_matrix.hpp"
#include "core/ulv_factorization.hpp"
#include "hmatrix/h2_matrix.hpp"
#include "hodlr/hodlr.hpp"
#include "runtime/thread_pool.hpp"
#include "util/env.hpp"

namespace h2 {

std::string solver_default_spill_dir() {
  return env::get_string("H2_SPILL_DIR", std::string());
}

double solver_default_spill_mb() { return env::get_double("H2_SPILL_MB", 256.0); }

int solver_default_spill_threads() {
  return env::get_int("H2_SPILL_THREADS", 2);
}

Precision solver_default_precision() {
  std::string v = env::get_string("H2_PRECISION", std::string());
  for (char& c : v) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return (v == "f32" || v == "fp32" || v == "single") ? Precision::F32
                                                      : Precision::F64;
}

UlvOptions SolverOptions::ulv_options() const {
  UlvOptions u;
  u.tol = tol;
  u.max_rank = max_rank;
  u.fill_tol_factor = fill_tol_factor;
  u.fillin_augmentation = fillin_augmentation;
  u.mode = mode;
  u.executor = executor;
  u.n_workers = n_workers;
  u.pool = pool;
  u.record_tasks = record_tasks;
  u.width_stable_solve = width_stable_solve;
  u.precision = precision;
  u.spill_dir = spill_dir;
  u.spill_budget_bytes =
      static_cast<std::uint64_t>(spill_budget_mb * (1ull << 20));
  u.spill_threads = spill_threads;
  return u;
}

void SolverOptions::validate() const {
  if (leaf_size < 2)
    throw std::invalid_argument(
        "SolverOptions: leaf_size must be >= 2 (got " +
        std::to_string(leaf_size) + "); clusters are split in halves");
  if (!(eta > 0.0))
    throw std::invalid_argument(
        "SolverOptions: eta must be > 0 (got " + std::to_string(eta) + ")");
  if (!(build_tol_factor > 0.0))
    throw std::invalid_argument(
        "SolverOptions: build_tol_factor must be > 0 (got " +
        std::to_string(build_tol_factor) + ")");
  if (spill_budget_mb < 0.0)
    throw std::invalid_argument(
        "SolverOptions: spill_budget_mb must be >= 0 (got " +
        std::to_string(spill_budget_mb) +
        "); it is the resident byte budget of the spill tier (H2_SPILL_MB)");
  if (refine_tol < 0.0)
    throw std::invalid_argument(
        "SolverOptions: refine_tol must be >= 0 (got " +
        std::to_string(refine_tol) + "); 0 means refine to tol");
  if (max_refine_iters < 1)
    throw std::invalid_argument(
        "SolverOptions: max_refine_iters must be >= 1 (got " +
        std::to_string(max_refine_iters) + ")");
  if (precision == Precision::F32 && (structure == SolverStructure::BLR ||
                                      structure == SolverStructure::HODLR))
    throw std::invalid_argument(
        "SolverOptions: Precision::F32 is supported for the H2/HSS "
        "structures only; BLR and HODLR factor in fp64 (H2_PRECISION)");
  UlvOptions u = ulv_options();
  u.validate();  // tol, fill_tol_factor, n_workers checks live there
}

/// The whole pipeline, built once and shared (immutably) by every copy of
/// the Solver and every in-flight SolveHandle.
struct Solver::Impl {
  SolverOptions opt;
  std::unique_ptr<ClusterTree> tree;
  // Exactly one backend is set, by opt.structure.
  std::unique_ptr<UlvFactorization> ulv;  // H2 / HSS
  std::unique_ptr<BlrMatrix> blr;
  std::unique_ptr<HodlrMatrix> hodlr;
  /// The fp64 operator mixed-precision solves refine against: the H2Matrix
  /// the fp32 factorization was built from, retained only under
  /// Precision::F32.
  std::unique_ptr<H2Matrix> op;
  /// Most recent refinement outcome (see Solver::last_refine). Mutable
  /// because the Impl is shared immutably; solves may race on it.
  mutable RefineResult last_refine;
  mutable std::mutex refine_mu;
};

Solver Solver::build(const PointCloud& points, const Kernel& kernel,
                     SolverOptions opt) {
  opt.validate();
  auto impl = std::make_shared<Impl>();
  Rng rng(opt.seed);
  impl->tree = std::make_unique<ClusterTree>(
      ClusterTree::build(points, opt.leaf_size, rng, opt.partitioner));
  switch (opt.structure) {
    case SolverStructure::H2:
    case SolverStructure::HSS: {
      H2BuildOptions ho;
      ho.admissibility = {opt.structure == SolverStructure::H2
                              ? Admissibility::Strong
                              : Admissibility::Weak,
                          opt.eta};
      ho.tol = opt.build_tol_factor * opt.tol;
      ho.max_rank = opt.max_rank;
      // The H2Matrix is only needed while factorizing — except under F32,
      // where it stays on as the refinement loop's fp64 residual operator.
      auto a = std::make_unique<H2Matrix>(*impl->tree, kernel, ho);
      impl->ulv = std::make_unique<UlvFactorization>(*a, opt.ulv_options());
      if (opt.precision == Precision::F32) impl->op = std::move(a);
      break;
    }
    case SolverStructure::BLR: {
      BlrOptions bo;
      bo.tol = opt.tol;
      bo.max_rank = opt.max_rank;
      // BLR drives its own task-graph workers rather than borrowing a
      // pool, so an explicit pool contributes its SIZE (the caller's
      // parallelism bound); otherwise n_workers, with 0 meaning "use the
      // hardware" as everywhere else in the options surface.
      bo.n_threads = opt.pool != nullptr ? opt.pool->size()
                     : opt.n_workers > 0 ? opt.n_workers
                                         : ThreadPool::env_threads();
      impl->blr = std::make_unique<BlrMatrix>(*impl->tree, kernel, bo);
      impl->blr->factorize();
      break;
    }
    case SolverStructure::HODLR: {
      impl->hodlr = std::make_unique<HodlrMatrix>(
          *impl->tree, kernel, HodlrMatrix::Options{opt.tol, opt.max_rank});
      break;
    }
  }
  impl->opt = opt;
  return Solver(std::move(impl));
}

namespace {

void check_rhs_rows(int got, int want) {
  // The permutation helpers and backends only assert() shapes, which
  // Release builds compile out — a facade caller with a stale rhs would
  // corrupt the heap instead of hearing about it.
  if (got != want)
    throw std::invalid_argument("Solver: rhs has " + std::to_string(got) +
                                " rows, but the solver was built over " +
                                std::to_string(want) + " points");
}

}  // namespace

void Solver::solve_in_place(MatrixView b) const {
  check_rhs_rows(b.rows(), n());
  auto raw = [this](MatrixView v) {
    if (impl_->ulv) {
      impl_->ulv->solve(v);
    } else if (impl_->blr) {
      impl_->blr->solve(v);
    } else {
      impl_->hodlr->solve(v);
    }
  };
  if (impl_->op == nullptr) {
    raw(b);
    return;
  }
  // Mixed precision: one raw reduced-precision solve seeds the iterate,
  // then fp64 refinement against the retained operator drives the residual
  // to refine_tol (tol when unset). b is both the rhs and, on exit, x.
  Matrix x = Matrix::from(b);
  raw(x);
  const double target = impl_->opt.refine_tol > 0.0 ? impl_->opt.refine_tol
                                                    : impl_->opt.tol;
  const RefineResult rr =
      refine(*impl_->op, raw, b, x, impl_->opt.max_refine_iters, target);
  {
    const std::lock_guard<std::mutex> lk(impl_->refine_mu);
    impl_->last_refine = rr;
  }
  copy_into(x, b);
}

RefineResult Solver::last_refine() const {
  const std::lock_guard<std::mutex> lk(impl_->refine_mu);
  return impl_->last_refine;
}

Matrix Solver::solve(ConstMatrixView b) const {
  check_rhs_rows(b.rows(), n());
  Matrix x = impl_->tree->to_tree_order(b);
  solve_in_place(x);
  return impl_->tree->from_tree_order(x);
}

SolveHandle Solver::solve_async(Matrix b) const {
  auto task = std::make_shared<std::packaged_task<SolveHandle::Outcome()>>(
      [impl = impl_, b = std::move(b)]() mutable {
        // The task's Impl reference moves into a local, so it is dropped
        // when this body returns — before the future becomes ready. Once
        // get() returns, no pool worker still owns the factorization: the
        // caller's last Solver or handle frees it, on the caller's thread.
        const Solver s(std::move(impl));
        const UlvFactorization* ulv = s.impl_->ulv.get();
        const std::uint64_t gen0 = ulv ? ulv->solve_stats_generation() : 0;
        Matrix x = s.solve(b);
        // Snapshot the backend's trace only if a DAG solve actually
        // completed since this one started — a solve that pipelined inline
        // (untraced) must come back EMPTY, not carry a stale
        // sibling's trace as its own. See SolveHandle::stats.
        SolveHandle::Outcome out{std::move(x), ExecStats{}};
        if (ulv && ulv->solve_stats_generation() != gen0)
          out.stats = ulv->last_solve_stats();
        return out;
      });
  std::future<SolveHandle::Outcome> fut = task->get_future();
  // Pipeline on the user's pool, else the process-wide one — never on the
  // factorization's own n_workers pool: the queued task holds a shared_ptr
  // to Impl, and if it were the last reference, releasing it on a worker of
  // that pool would run ~ThreadPool on the pool's own thread (a self-join).
  // The solve inside still executes on the factorization's pool.
  ThreadPool& pool =
      impl_->opt.pool != nullptr ? *impl_->opt.pool : ThreadPool::global();
  if (ThreadPool::current() == &pool) {
    // Already on a worker of the pipelining pool: run inline instead of
    // blocking a future on work queued behind this very task.
    (*task)();
  } else {
    pool.submit([task] { (*task)(); });
  }
  return SolveHandle(std::move(fut), impl_);
}

std::vector<Matrix> Solver::solve_batch(
    const std::vector<Matrix>& rhs) const {
  std::vector<SolveHandle> handles;
  handles.reserve(rhs.size());
  for (const Matrix& b : rhs) handles.push_back(solve_async(b));
  std::vector<Matrix> out;
  out.reserve(rhs.size());
  for (SolveHandle& h : handles) out.push_back(h.get());
  return out;
}

double Solver::logabsdet() const {
  if (impl_->ulv) return impl_->ulv->logabsdet();
  if (impl_->blr) return impl_->blr->logabsdet();
  return impl_->hodlr->logabsdet();
}

ExecStats Solver::last_solve_stats() const {
  return impl_->ulv ? impl_->ulv->last_solve_stats() : ExecStats{};
}

int Solver::n() const { return impl_->tree->n_points(); }

SolverStructure Solver::structure() const { return impl_->opt.structure; }

const ClusterTree& Solver::tree() const { return *impl_->tree; }

const UlvStats* Solver::ulv_stats() const {
  return impl_->ulv ? &impl_->ulv->stats() : nullptr;
}

int Solver::max_rank_used() const {
  if (impl_->ulv) return impl_->ulv->stats().max_rank;
  if (impl_->blr) return impl_->blr->max_rank_used();
  return impl_->hodlr->max_rank_used();
}

SpillStats Solver::spill_stats() const {
  return impl_->ulv ? impl_->ulv->spill_stats() : SpillStats{};
}

bool Solver::demote_to_disk(const std::string& dir) {
  return impl_->ulv ? impl_->ulv->demote_to_disk(dir) : false;
}

void Solver::promote() {
  if (impl_->ulv) impl_->ulv->promote();
}

Matrix SolveHandle::get() {
  Outcome out = future_.get();
  stats_ = std::move(out.stats);
  return std::move(out.x);
}

bool SolveHandle::ready() const {
  // After get() the future is invalid; wait_for on it would be UB.
  return !future_.valid() || future_.wait_for(std::chrono::seconds(0)) ==
                                 std::future_status::ready;
}

void SolveHandle::wait() const {
  if (future_.valid()) future_.wait();
}

}  // namespace h2
