#include "core/ulv_factorization.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <memory>

#include "linalg/batch.hpp"
#include "runtime/block_pool.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/thread_pool.hpp"
#include "util/flops.hpp"
#include "util/timer.hpp"

namespace h2 {

namespace {

template <class T>
std::uint64_t bytes_of(const MatrixT<T>& m) {
  return sizeof(T) * static_cast<std::uint64_t>(m.rows()) *
         static_cast<std::uint64_t>(m.cols());
}

}  // namespace

/// Transient per-level storage of the factorization pipeline. Every map is
/// fully keyed by prepare() before any body runs, so concurrent bodies only
/// assign mapped values through stable node references — the map structure
/// itself is never mutated during execution.
template <class T>
struct UlvEngine<T>::Workspace {
  const H2Matrix* a = nullptr;
  /// cur[l]: stored blocks of level l in current (child-skeleton)
  /// coordinates — leaf dense blocks at l = depth, merged skeletons above.
  /// Freed row-by-row by body_project_row, their last consumer.
  std::vector<std::map<Key, Matrix>> cur;
  /// Admissible U/V factors of each level in current coordinates.
  std::vector<std::map<Key, Matrix>> ucur, vcur;
  /// Compressed fill-in column spaces per pivot row (Fig. 7).
  std::vector<std::vector<Matrix>> fill_p;
};

template <class T>
UlvEngine<T>::UlvEngine(const H2Matrix& a, const UlvOptions& opt)
    : tree_(&a.tree()),
      structure_(a.structure()),
      opt_(opt),
      depth_(a.tree().depth()) {
  opt_.validate();
  if (opt_.pool != nullptr) {
    pool_ = opt_.pool;
  } else if (opt_.n_workers > 0) {
    own_pool_ = std::make_unique<ThreadPool>(opt_.n_workers);
    pool_ = own_pool_.get();
  } else {
    pool_ = &ThreadPool::global();
  }
  // Out-of-core tier: the store must exist before factorize() so factor
  // blocks can spill at their release points instead of stacking up.
  if (!opt_.spill_dir.empty())
    spill_attach(opt_.spill_dir, opt_.spill_budget_bytes, opt_.spill_threads);
  try {
    const Timer total;
    const std::uint64_t flops0 = flops::total();
    factorize(a);
    stats_.factor_flops = flops::total() - flops0;
    stats_.factor_seconds = total.seconds();
    for (const auto& level_ranks : stats_.ranks)
      for (const int r : level_ranks)
        stats_.max_rank = std::max(stats_.max_rank, r);
    if (depth_ > 0) build_solve_plan();
    if (store_ != nullptr) {
      spill_finish_registration();
      build_spill_plan();  // seals the store; rethrows any recorded IO error
      const SpillStats ss = store_->stats();
      stats_.spilled_blocks = ss.blocks;
      stats_.spilled_bytes = ss.block_bytes;
      stats_.spill_budget_bytes = ss.budget_bytes;
    }
  } catch (...) {
    // A failed task (e.g. an exactly singular pivot) surfaces here; the
    // destructor will not run, so discharge what this factorization charged
    // — its workspace and factor blocks unwind with the members.
    blockmem::discharge(tracked_bytes_.load(std::memory_order_relaxed));
    throw;
  }
}

template <class T>
UlvEngine<T>::~UlvEngine() {
  blockmem::discharge(tracked_bytes_.load(std::memory_order_relaxed));
}

template <class T>
void UlvEngine<T>::track_store(Matrix& dst, Matrix&& fresh) {
  const std::uint64_t before = bytes_of(dst), after = bytes_of(fresh);
  dst = std::move(fresh);
  if (after >= before) {
    blockmem::charge(after - before);
    tracked_bytes_.fetch_add(after - before, std::memory_order_relaxed);
  } else {
    blockmem::discharge(before - after);
    tracked_bytes_.fetch_sub(before - after, std::memory_order_relaxed);
  }
}

template <class T>
void UlvEngine<T>::track_take(Matrix& dst, Matrix& src) {
  const std::uint64_t overwritten = bytes_of(dst);
  blockmem::discharge(overwritten);
  tracked_bytes_.fetch_sub(overwritten, std::memory_order_relaxed);
  dst = std::move(src);
  src = Matrix();  // moved-from shape is unspecified; make the slot empty
}

template <class T>
void UlvEngine<T>::track_drop(Matrix& m) {
  const std::uint64_t b = bytes_of(m);
  if (b == 0) {
    m = Matrix();
    return;
  }
  blockmem::discharge(b);
  tracked_bytes_.fetch_sub(b, std::memory_order_relaxed);
  Matrix dead = std::move(m);
  m = Matrix();
  BlockPool::global().recycle(std::move(dead));
}

template <class T>
void UlvEngine<T>::release_ry_row(int level, int i) {
  for (const int j : structure_.admissible_cols(level, i))
    track_drop(ry_[level].at({i, j}));
}

template <class T>
void UlvEngine<T>::release_skel_block(int level, int i, int j) {
  track_drop(skel_[level].at({i, j}));
}

template <class T>
void UlvEngine<T>::release_level_remnants(Workspace& w, int level) {
  // The per-resource releases emptied the VALUES; this retires the node
  // storage (and any value the fine-grained path does not cover, e.g. the
  // already-emptied cur/ucur/vcur slots). Callers order it after every task
  // touching the level, so clearing the maps is exclusive.
  for (auto& [key, m] : w.cur[level]) track_drop(m);
  w.cur[level].clear();
  for (auto& [key, m] : w.ucur[level]) track_drop(m);
  w.ucur[level].clear();
  for (auto& [key, m] : w.vcur[level]) track_drop(m);
  w.vcur[level].clear();
  for (Matrix& m : w.fill_p[level]) track_drop(m);
  w.fill_p[level].clear();
  w.fill_p[level].shrink_to_fit();
  for (auto& [key, m] : ry_[level]) track_drop(m);
  ry_[level].clear();
  for (auto& [key, m] : skel_[level]) track_drop(m);
  skel_[level].clear();
  // The level's projected dense blocks are final once it drained: hand them
  // to the out-of-core tier here — its release point — so the factorization
  // never holds more spilled-tier bytes than the resident budget. (The q
  // bases are NOT final-read yet: current_rows reads every deeper level's
  // bases until the last level merges, so they adopt at the end.)
  if (store_ != nullptr) spill_register_dense(level);
}

template <class T>
void UlvEngine<T>::spill_attach(const std::string& dir,
                                    std::uint64_t budget_bytes,
                                    int io_threads) {
  SpillStore::Options so;
  so.dir = dir;
  so.budget_bytes = budget_bytes;
  so.io_threads = io_threads;
  store_ = std::make_unique<SpillStore>(so);
  dslot_.assign(depth_ + 1, {});
  qslot_.assign(depth_ + 1, {});
}

template <class T>
void UlvEngine<T>::spill_register_dense(int level) {
  std::lock_guard<std::mutex> lk(spill_mu_);
  auto& slots = dslot_[level];
  for (auto& [key, m] : levels_[level].dense) {
    if (m.empty() || slots.count(key) != 0) continue;
    const std::uint64_t b = bytes_of(m);
    const SpillStore::SlotId id =
        store_->adopt(&m, "dense L" + std::to_string(level) + " (" +
                              std::to_string(key.first) + "," +
                              std::to_string(key.second) + ")");
    // Accounting ownership moves to the store (adopt charged it); dropping
    // ours second keeps the blockmem counter from dipping below live.
    blockmem::discharge(b);
    tracked_bytes_.fetch_sub(b, std::memory_order_relaxed);
    slots.emplace(key, std::make_pair(id, b));
  }
}

template <class T>
void UlvEngine<T>::spill_finish_registration() {
  if (depth_ == 0) return;  // degenerate tree: one dense LU, keep it in RAM
  for (int l = 1; l <= depth_; ++l) spill_register_dense(l);
  std::lock_guard<std::mutex> lk(spill_mu_);
  for (int l = 1; l <= depth_; ++l) {
    auto& qs = qslot_[l];
    qs.assign(levels_[l].nb, {SpillStore::kNoSlot, 0});
    for (int c = 0; c < levels_[l].nb; ++c) {
      Matrix& q = levels_[l].q[c];
      if (q.empty()) continue;
      const std::uint64_t b = bytes_of(q);
      const SpillStore::SlotId id =
          store_->adopt(&q, "q L" + std::to_string(l) + " c" + std::to_string(c));
      blockmem::discharge(b);
      tracked_bytes_.fetch_sub(b, std::memory_order_relaxed);
      qs[c] = {id, b};
    }
  }
  if (!top_lu_.empty()) {
    const std::uint64_t b = bytes_of(top_lu_);
    topslot_ = store_->adopt(&top_lu_, "top_lu");
    blockmem::discharge(b);
    tracked_bytes_.fetch_sub(b, std::memory_order_relaxed);
  }
}

template <class T>
UlvEngine<T>::SolveGuard::SolveGuard(const UlvEngine<T>& u)
    : u_(u.store_ != nullptr ? &u : nullptr) {
  if (u_ == nullptr) return;
  std::lock_guard<std::mutex> lk(u_->solve_gate_mu_);
  ++u_->active_solves_;
}

template <class T>
UlvEngine<T>::SolveGuard::~SolveGuard() {
  if (u_ == nullptr) return;
  std::lock_guard<std::mutex> lk(u_->solve_gate_mu_);
  --u_->active_solves_;
  u_->solve_gate_cv_.notify_all();
}

template <class T>
SpillStats UlvEngine<T>::spill_stats() const {
  return store_ != nullptr ? store_->stats() : SpillStats{};
}

template <class T>
bool UlvEngine<T>::demote_to_disk(const std::string& dir) {
  // Hold the solve gate across the whole demotion: in-flight solves drain
  // first (their pins would keep blocks resident anyway), and solves
  // arriving meanwhile block in their SolveGuard until the factor is cold.
  std::unique_lock<std::mutex> lk(solve_gate_mu_);
  solve_gate_cv_.wait(lk, [&] { return active_solves_ == 0; });
  if (store_ == nullptr) {
    promote_budget_ = ~0ull;  // promotion = fully resident again
    spill_attach(dir, /*budget_bytes=*/0, opt_.spill_threads);
    spill_finish_registration();
    build_spill_plan();
  } else if (!demoted_) {
    promote_budget_ = store_->stats().budget_bytes;
    store_->set_budget(0);
  }
  store_->drop_all();
  demoted_ = true;
  return true;
}

template <class T>
void UlvEngine<T>::promote() {
  std::lock_guard<std::mutex> lk(solve_gate_mu_);
  if (store_ == nullptr || !demoted_) return;
  store_->set_budget(promote_budget_);
  if (promote_budget_ == ~0ull) store_->fetch_all();
  demoted_ = false;
}

template <class T>
void UlvEngine<T>::add_dropped(double fro2) {
  if (fro2 <= 0.0) return;
  std::lock_guard<std::mutex> lk(stats_mutex_);
  stats_.dropped_mass += fro2;  // accumulated squared; sqrt at the end
}

template <class T>
auto UlvEngine<T>::current_rows(int level, int lid,
                                ConstMatrixViewT<double> x_full) const
    -> Matrix {
  if (level == depth_) return from_f64(x_full);
  const int c0 = 2 * lid, c1 = 2 * lid + 1;
  const int pts0 = tree_->node(level + 1, c0).size();
  const int pts1 = tree_->node(level + 1, c1).size();
  assert(x_full.rows() == pts0 + pts1);
  const int w = x_full.cols();
  const Matrix y0 = current_rows(level + 1, c0, x_full.block(0, 0, pts0, w));
  const Matrix y1 = current_rows(level + 1, c1, x_full.block(pts0, 0, pts1, w));
  const Level& child = levels_[level + 1];
  const int r0 = child.rank[c0], r1 = child.rank[c1];
  Matrix out(r0 + r1, w);
  if (r0 > 0)
    gemm(1.0, child.q[c0].block(0, 0, child.size[c0], r0), Trans::Yes, y0,
         Trans::No, 0.0, out.block(0, 0, r0, w));
  if (r1 > 0)
    gemm(1.0, child.q[c1].block(0, 0, child.size[c1], r1), Trans::Yes, y1,
         Trans::No, 0.0, out.block(r0, 0, r1, w));
  return out;
}

template <class T>
void UlvEngine<T>::prepare(Workspace& w) {
  levels_.resize(depth_ + 1);
  skel_.resize(depth_ + 1);
  ry_.resize(depth_ + 1);
  stats_.ranks.resize(depth_ + 1);
  w.cur.resize(depth_ + 1);
  w.ucur.resize(depth_ + 1);
  w.vcur.resize(depth_ + 1);
  w.fill_p.resize(depth_ + 1);
  for (int l = 0; l <= depth_; ++l)
    for (const auto& [i, j] : structure_.inadmissible_pairs(l))
      w.cur[l].emplace(Key{i, j}, Matrix());
  for (int l = 1; l <= depth_; ++l) {
    Level& ld = levels_[l];
    const int nb = tree_->n_clusters(l);
    ld.nb = nb;
    ld.size.assign(nb, 0);
    ld.rank.assign(nb, 0);
    ld.q.assign(nb, Matrix());
    ld.rr_piv.assign(nb, {});
    stats_.ranks[l].assign(nb, 0);
    w.fill_p[l].assign(nb, Matrix());
    for (const auto& [i, j] : structure_.inadmissible_pairs(l))
      ld.dense.emplace(Key{i, j}, Matrix());
    for (const auto& [i, j] : structure_.admissible_pairs(l)) {
      skel_[l].emplace(Key{i, j}, Matrix());
      ry_[l].emplace(Key{i, j}, Matrix());
      w.ucur[l].emplace(Key{i, j}, Matrix());
      w.vcur[l].emplace(Key{i, j}, Matrix());
    }
  }
}

// ---------------------------------------------------------------------------
// Phase bodies — one (phase, cluster) unit of work each. Every DAG shape
// runs exactly these, in the same per-body operation order, which is what
// makes the results bitwise identical across shapes and worker counts.
// ---------------------------------------------------------------------------

template <class T>
void UlvEngine<T>::body_assemble(Workspace& w, int level, int i) {
  track_store(w.cur[level].at({i, i}), from_f64(w.a->dense_block(i, i)));
  for (const int j : structure_.dense_cols(level, i))
    track_store(w.cur[level].at({i, j}), from_f64(w.a->dense_block(i, j)));
}

template <class T>
void UlvEngine<T>::body_ry(Workspace& w, int level, int i) {
  // R factors of the QR of every admissible block's V factor: the magnitude-
  // preserving right factor used when a block's column space enters a basis
  // concatenation (u * ry^T has the same Gram matrix as u * v^T). The row's
  // factorizations go down as one qr_batch.
  std::vector<int> js;
  std::vector<Matrix> vqs;
  for (const int j : structure_.admissible_cols(level, i)) {
    const LowRank& lr = w.a->lowrank_block(level, i, j);
    if (lr.rank() == 0) continue;
    js.push_back(j);
    vqs.push_back(from_f64(lr.v));
  }
  std::vector<std::vector<T>> taus(js.size());
  std::vector<QrTask> tasks;
  tasks.reserve(js.size());
  for (std::size_t t = 0; t < js.size(); ++t) tasks.push_back({vqs[t], &taus[t]});
  qr_batch(tasks);
  for (std::size_t t = 0; t < js.size(); ++t)
    track_store(ry_[level].at({i, js[t]}), extract_r(vqs[t]));  // rank x rank
}

template <class T>
void UlvEngine<T>::body_project_lr(Workspace& w, int level, int i) {
  for (const int j : structure_.admissible_cols(level, i)) {
    const LowRank& lr = w.a->lowrank_block(level, i, j);
    if (lr.rank() == 0) continue;
    track_store(w.ucur[level].at({i, j}), current_rows(level, i, lr.u));
    track_store(w.vcur[level].at({i, j}), current_rows(level, j, lr.v));
  }
}

template <class T>
void UlvEngine<T>::body_fill(Workspace& w, int level, int k) {
  // Fig. 7: the column space that every fill-in F(i,j) = A(i,k) A(k,k)^-1
  // A(k,j) through pivot k can occupy. We factor the concatenation
  // [A(k,k)^-1 A(k,j)]_j once per k (the paper's "not redundantly computed"
  // note) and compress it to P_k so that A(i,k) * P_k spans exactly the same
  // space as [F(i,j)]_j with the same Gram matrix — equivalent to
  // concatenating the fill-ins themselves.
  const auto& dcols = structure_.dense_cols(level, k);
  if (dcols.empty()) return;
  Matrix lu = w.cur[level].at({k, k});
  const int nk = lu.rows();
  std::vector<int> piv;
  getrf(lu, piv);
  std::vector<Matrix> tblocks;
  tblocks.reserve(dcols.size());
  for (const int j : dcols) tblocks.push_back(w.cur[level].at({k, j}));
  // getrs unrolled into batches (laswp + L solve + U solve per block, same
  // per-block operation order) so the LU triangle's panels pack once.
  std::vector<TrsmTask> lsolves, usolves;
  lsolves.reserve(tblocks.size());
  usolves.reserve(tblocks.size());
  for (Matrix& tb : tblocks) {
    laswp(tb, piv, /*forward=*/true);
    lsolves.push_back(
        {Side::Left, UpLo::Lower, Trans::No, Diag::Unit, 1.0, lu, tb});
    usolves.push_back(
        {Side::Left, UpLo::Upper, Trans::No, Diag::NonUnit, 1.0, lu, tb});
  }
  trsm_batch(lsolves);
  trsm_batch(usolves);
  std::vector<ConstMatrixView> views(tblocks.begin(), tblocks.end());
  const Matrix tc = hconcat(views);
  // Keep fill directions somewhat below the basis tolerance.
  const PivotedQr qr = pivoted_qr(tc, opt_.fill_tol_factor * opt_.tol, -1);
  if (qr.rank == 0) return;
  Matrix rt = qr.r.transposed();
  std::vector<T> tau;
  householder_qr(rt, tau);
  const Matrix rtr = extract_r(rt);  // r_T x r_T
  track_store(w.fill_p[level][k],
              matmul(qr.q.block(0, 0, nk, qr.rank), rtr, Trans::No, Trans::Yes));
}

template <class T>
void UlvEngine<T>::body_basis(Workspace& w, int level, int i) {
  // Eqs. 27-28 + nestedness: shared basis per cluster from
  // [fill-in spaces | this level's low-rank blocks | ancestor-block rows].
  Level& ld = levels_[level];
  ld.size[i] = (level == depth_) ? tree_->node(level, i).size()
                                 : levels_[level + 1].rank[2 * i] +
                                       levels_[level + 1].rank[2 * i + 1];
  // Collect every contribution as one gemm batch (outputs preallocated, a
  // Matrix move never invalidates views into its heap storage).
  std::vector<Matrix> parts;
  std::vector<Matrix> xis;  // ancestor row-slice temporaries
  std::vector<GemmTask> tasks;
  auto add_part = [&](ConstMatrixView a, ConstMatrixView b, Trans tb) {
    parts.emplace_back(a.rows(), tb == Trans::No ? b.cols() : b.rows());
    tasks.push_back({1.0, a, Trans::No, b, tb, 0.0, parts.back()});
  };
  if (opt_.fillin_augmentation) {
    for (const int k : structure_.dense_cols(level, i))
      if (!w.fill_p[level][k].empty())
        add_part(w.cur[level].at({i, k}), w.fill_p[level][k], Trans::No);
  }
  for (const int j : structure_.admissible_cols(level, i)) {
    const Matrix& u = w.ucur[level].at({i, j});
    if (!u.empty()) add_part(u, ry_[level].at({i, j}), Trans::Yes);
  }
  for (int lambda = 1; lambda < level; ++lambda) {
    const int anc = i >> (level - lambda);
    const int row0 = tree_->node(level, i).begin;
    const int anc0 = tree_->node(lambda, anc).begin;
    const int npts = tree_->node(level, i).size();
    for (const int j : structure_.admissible_cols(lambda, anc)) {
      const LowRank& lr = w.a->lowrank_block(lambda, anc, j);
      if (lr.rank() == 0) continue;
      xis.push_back(
          current_rows(level, i, lr.u.block(row0 - anc0, 0, npts, lr.rank())));
      add_part(xis.back(), ry_[lambda].at({anc, j}), Trans::Yes);
    }
  }
  gemm_batch(tasks);
  if (parts.empty()) {
    track_store(ld.q[i], Matrix::identity(ld.size[i]));
    ld.rank[i] = 0;
  } else {
    std::vector<ConstMatrixView> views(parts.begin(), parts.end());
    const Matrix concat = hconcat(views);
    PivotedQr qr = pivoted_qr(concat, opt_.tol, opt_.max_rank);
    track_store(ld.q[i], std::move(qr.q));
    ld.rank[i] = qr.rank;
  }
  stats_.ranks[level][i] = ld.rank[i];
}

template <class T>
void UlvEngine<T>::body_project_row(Workspace& w, int level, int i) {
  // Eqs. 8-9: project row i's blocks onto the bases, then (release_blocks)
  // free the row's inputs — the projection is their last consumer (fill and
  // basis of this row are ordered before it in every DAG shape).
  Level& ld = levels_[level];
  // Dense blocks in two batched passes (Q_i^T A, then * Q_j): Q_i is the
  // shared left operand of the whole first pass, so it packs once.
  std::vector<int> djs{i};
  const auto& dcols = structure_.dense_cols(level, i);
  djs.insert(djs.end(), dcols.begin(), dcols.end());
  std::vector<Matrix> tmps, outs;
  std::vector<GemmTask> pass1, pass2;
  for (const int j : djs) {
    const Matrix& cij = w.cur[level].at({i, j});
    tmps.emplace_back(ld.q[i].cols(), cij.cols());
    pass1.push_back(
        {1.0, ld.q[i], Trans::Yes, cij, Trans::No, 0.0, tmps.back()});
  }
  gemm_batch(pass1);
  for (std::size_t x = 0; x < djs.size(); ++x) {
    outs.emplace_back(tmps[x].rows(), ld.q[djs[x]].cols());
    pass2.push_back(
        {1.0, tmps[x], Trans::No, ld.q[djs[x]], Trans::No, 0.0, outs.back()});
  }
  gemm_batch(pass2);
  for (std::size_t x = 0; x < djs.size(); ++x)
    track_store(ld.dense.at({i, djs[x]}), std::move(outs[x]));

  // Admissible skeletons: su / sv / s passes, each batched (su shares the
  // Q_i column block, sv varies, s is rank x rank).
  const auto& ajs = structure_.admissible_cols(level, i);
  std::vector<int> bjs;
  for (const int j : ajs) {
    const Matrix& u = w.ucur[level].at({i, j});
    if (!u.empty() && ld.rank[i] > 0 && ld.rank[j] > 0) bjs.push_back(j);
  }
  std::vector<Matrix> sus, svs, ss;
  std::vector<GemmTask> tsu, tsv, ts;
  for (const int j : bjs) {
    const Matrix& u = w.ucur[level].at({i, j});
    sus.emplace_back(ld.rank[i], u.cols());
    tsu.push_back({1.0, ld.q[i].block(0, 0, ld.size[i], ld.rank[i]),
                   Trans::Yes, u, Trans::No, 0.0, sus.back()});
  }
  gemm_batch(tsu);
  for (std::size_t x = 0; x < bjs.size(); ++x) {
    const int j = bjs[x];
    const Matrix& v = w.vcur[level].at({i, j});
    svs.emplace_back(ld.rank[j], v.cols());
    tsv.push_back({1.0, ld.q[j].block(0, 0, ld.size[j], ld.rank[j]),
                   Trans::Yes, v, Trans::No, 0.0, svs.back()});
  }
  gemm_batch(tsv);
  for (std::size_t x = 0; x < bjs.size(); ++x) {
    ss.emplace_back(sus[x].rows(), svs[x].rows());
    ts.push_back(
        {1.0, sus[x], Trans::No, svs[x], Trans::Yes, 0.0, ss.back()});
  }
  gemm_batch(ts);
  std::size_t bx = 0;
  for (const int j : ajs) {
    const bool batched = bx < bjs.size() && bjs[bx] == j;
    Matrix s = batched ? std::move(ss[bx++])
                       : BlockPool::global().make_as<T>(ld.rank[i], ld.rank[j]);
    track_store(skel_[level].at({i, j}), std::move(s));
  }
  if (opt_.release_blocks) {
    track_drop(w.cur[level].at({i, i}));
    for (const int j : structure_.dense_cols(level, i))
      track_drop(w.cur[level].at({i, j}));
    for (const int j : structure_.admissible_cols(level, i)) {
      track_drop(w.ucur[level].at({i, j}));
      track_drop(w.vcur[level].at({i, j}));
    }
  }
}

template <class T>
void UlvEngine<T>::body_eliminate(int level, int k) {
  Level& ld = levels_[level];
  const int n = ld.size[k], r = ld.rank[k], nr = n - r;
  ld.rr_piv[k].clear();
  if (nr == 0) return;
  Matrix& dkk = ld.dense.at({k, k});
  MatrixView rr = dkk.block(r, r, nr, nr);
  getrf(rr, ld.rr_piv[k]);
  if (r > 0) {
    MatrixView rs = dkk.block(r, 0, nr, r);
    laswp(rs, ld.rr_piv[k], true);
    trsm(Side::Left, UpLo::Lower, Trans::No, Diag::Unit, 1.0, rr, rs);
    MatrixView sr = dkk.block(0, r, r, nr);
    trsm(Side::Right, UpLo::Upper, Trans::No, Diag::NonUnit, 1.0, rr, sr);
  }
  // Row strips share the pivot triangle: batch them so it packs once.
  std::vector<TrsmTask> tasks;
  for (const int j : structure_.dense_cols(level, k)) {
    MatrixView strip = ld.dense.at({k, j}).block(r, 0, nr, ld.size[j]);
    laswp(strip, ld.rr_piv[k], true);
    tasks.push_back(
        {Side::Left, UpLo::Lower, Trans::No, Diag::Unit, 1.0, rr, strip});
  }
  trsm_batch(tasks);
}

template <class T>
void UlvEngine<T>::body_col_solve(int level, int k) {
  // Column strips of pivot k. Separated from body_eliminate so that no two
  // elimination tasks touch one block: this is a same-block exclusion with
  // the row tasks, NOT a trailing-sub-matrix data dependency — eliminate
  // tasks themselves stay pairwise independent (the paper's property).
  Level& ld = levels_[level];
  const int n = ld.size[k], r = ld.rank[k], nr = n - r;
  if (nr == 0) return;
  ConstMatrixView rr = ld.dense.at({k, k}).block(r, r, nr, nr);
  std::vector<TrsmTask> tasks;
  for (const int i : structure_.dense_rows(level, k)) {
    MatrixView strip = ld.dense.at({i, k}).block(0, r, ld.size[i], nr);
    tasks.push_back(
        {Side::Right, UpLo::Upper, Trans::No, Diag::NonUnit, 1.0, rr, strip});
  }
  trsm_batch(tasks);
}

template <class T>
std::vector<int> UlvEngine<T>::schur_k_list(int level, int i, int j) const {
  // k qualifies when both (i,k) and (k,j) are stored dense blocks (the
  // diagonal counts), i.e. k in (dense partners of row i + {i}) intersected
  // with (dense partners of column j + {j}).
  auto with_self = [](const std::vector<int>& v, int self) {
    std::vector<int> out(v);
    out.insert(std::lower_bound(out.begin(), out.end(), self), self);
    return out;
  };
  const std::vector<int> rows = with_self(structure_.dense_cols(level, i), i);
  const std::vector<int> cols = with_self(structure_.dense_rows(level, j), j);
  std::vector<int> ks;
  std::set_intersection(rows.begin(), rows.end(), cols.begin(), cols.end(),
                        std::back_inserter(ks));
  return ks;
}

template <class T>
void UlvEngine<T>::body_schur(int level, int i, int j, bool admissible) {
  // Schur products organized by *target* so accumulation is race-free.
  Level& ld = levels_[level];
  const int ri = ld.rank[i], rj = ld.rank[j];
  if (ri == 0 || rj == 0) return;
  MatrixView tgt = admissible ? MatrixView(skel_[level].at({i, j}))
                              : ld.dense.at({i, j}).block(0, 0, ri, rj);
  std::vector<GemmTask> tasks;
  for (const int k : schur_k_list(level, i, j)) {
    const int rk = ld.rank[k], nrk = ld.size[k] - rk;
    if (nrk == 0) continue;
    ConstMatrixView left = ld.dense.at({i, k}).block(0, rk, ri, nrk);
    ConstMatrixView right = ld.dense.at({k, j}).block(rk, 0, nrk, rj);
    tasks.push_back({-1.0, left, Trans::No, right, Trans::No, 1.0, tgt});
  }
  gemm_batch(tasks);
}

template <class T>
void UlvEngine<T>::body_dropped(int level, int k) {
  // Diagnostics: Frobenius mass of everything the method *drops* — the
  // non-SS components of cross-block updates, which the fill-in-augmented
  // bases are supposed to annihilate (the paper's central claim).
  Level& ld = levels_[level];
  const int rk = ld.rank[k], nrk = ld.size[k] - rk;
  if (nrk == 0) return;
  auto rows_of = [&](int i) {
    return ld.dense.at({i, k}).block(0, rk, ld.size[i], nrk);
  };
  auto cols_of = [&](int j) {
    return ld.dense.at({k, j}).block(rk, 0, nrk, ld.size[j]);
  };
  std::vector<int> is = structure_.dense_rows(level, k);
  is.push_back(k);
  std::vector<int> js = structure_.dense_cols(level, k);
  js.push_back(k);
  for (const int i : is) {
    for (const int j : js) {
      if (i == k && j == k) continue;
      const Matrix full = matmul(rows_of(i), cols_of(j));
      double applied2 = 0.0;
      const int ri = ld.rank[i], rj = ld.rank[j];
      const bool stored = structure_.is_admissible_at(level, i, j) ||
                          structure_.is_inadmissible_at(level, i, j);
      if (stored && ri > 0 && rj > 0) {
        const double ss = norm_fro(full.block(0, 0, ri, rj));
        applied2 = ss * ss;
      }
      const double all = norm_fro(full);
      add_dropped(all * all - applied2);
    }
  }
}

template <class T>
void UlvEngine<T>::body_eliminate_trailing(int level, int k) {
  // One pivot of the right-looking block elimination with trailing-sub-
  // matrix updates (the Sec. II.D flow, UlvMode::Sequential). Fill-ins into
  // admissible targets are recompressed by projection onto the shared
  // bases; their out-of-basis residual is dropped (and measured when
  // requested) — exactly the residual the paper's pre-computed-fill-in
  // bases make negligible.
  Level& ld = levels_[level];
  body_eliminate(level, k);
  const int rk = ld.rank[k], nrk = ld.size[k] - rk;
  if (nrk == 0) return;
  ConstMatrixView rr = ld.dense.at({k, k}).block(rk, rk, nrk, nrk);
  for (const int i : structure_.dense_rows(level, k)) {
    MatrixView strip = ld.dense.at({i, k}).block(0, rk, ld.size[i], nrk);
    trsm(Side::Right, UpLo::Upper, Trans::No, Diag::NonUnit, 1.0, rr, strip);
  }

  std::vector<int> is = structure_.dense_rows(level, k);
  is.push_back(k);
  std::vector<int> js = structure_.dense_cols(level, k);
  js.push_back(k);
  for (const int i : is) {
    for (const int j : js) {
      // (k,k) itself gets the classic SS downdate (Eq. 14) through the
      // same path: rsel = csel = rank[k].
      // Rows of i still active: all of them while i awaits elimination,
      // only the skeleton rows afterwards (and for i == k).
      const int rsel = (i > k) ? ld.size[i] : ld.rank[i];
      const int csel = (j > k) ? ld.size[j] : ld.rank[j];
      if (rsel == 0 || csel == 0) continue;
      ConstMatrixView left = ld.dense.at({i, k}).block(0, rk, rsel, nrk);
      ConstMatrixView right = ld.dense.at({k, j}).block(rk, 0, nrk, csel);
      if (structure_.is_inadmissible_at(level, i, j)) {
        gemm(-1.0, left, Trans::No, right, Trans::No, 1.0,
             ld.dense.at({i, j}).block(0, 0, rsel, csel));
      } else if (structure_.is_admissible_at(level, i, j)) {
        const int ri = ld.rank[i], rj = ld.rank[j];
        if (ri > 0 && rj > 0) {
          gemm(-1.0, left.block(0, 0, ri, nrk), Trans::No,
               right.block(0, 0, nrk, rj), Trans::No, 1.0,
               skel_[level].at({i, j}));
        }
        if (opt_.measure_dropped) {
          const Matrix full = matmul(left, right);
          const double all = norm_fro(full);
          const double ss =
              (ri > 0 && rj > 0) ? norm_fro(full.block(0, 0, ri, rj)) : 0.0;
          add_dropped(all * all - ss * ss);
        }
      } else if (opt_.measure_dropped) {
        const Matrix full = matmul(left, right);
        const double all = norm_fro(full);
        add_dropped(all * all);
      }
    }
  }
}

template <class T>
void UlvEngine<T>::body_merge(Workspace& w, int level, int pi, int pj) {
  // Eq. 22: merge the four children's skeleton sub-blocks into one parent
  // block of level - 1.
  Level& ld = levels_[level];
  const int rows = ld.rank[2 * pi] + ld.rank[2 * pi + 1];
  const int cols = ld.rank[2 * pj] + ld.rank[2 * pj + 1];
  Matrix m = BlockPool::global().make_as<T>(rows, cols);
  int r0 = 0;
  for (int ci = 2 * pi; ci <= 2 * pi + 1; ++ci) {
    int c0 = 0;
    for (int cj = 2 * pj; cj <= 2 * pj + 1; ++cj) {
      const int ri = ld.rank[ci], rj = ld.rank[cj];
      if (ri > 0 && rj > 0) {
        if (structure_.is_admissible_at(level, ci, cj)) {
          copy_into(skel_[level].at({ci, cj}), m.block(r0, c0, ri, rj));
        } else {
          copy_into(ld.dense.at({ci, cj}).block(0, 0, ri, rj),
                    m.block(r0, c0, ri, rj));
        }
      }
      c0 += rj;
    }
    r0 += ld.rank[ci];
  }
  track_store(w.cur[level - 1].at({pi, pj}), std::move(m));
}

template <class T>
void UlvEngine<T>::body_top(Workspace& w) {
  track_take(top_lu_, w.cur[0].at({0, 0}));
  getrf(top_lu_, top_piv_);
}

// ---------------------------------------------------------------------------
// The executor: one task DAG for every mode and shape.
// ---------------------------------------------------------------------------

template <class T>
void UlvEngine<T>::factorize(const H2Matrix& a) {
  if (depth_ == 0) {
    // Degenerate single-cluster problem: plain dense LU.
    levels_.resize(1);
    skel_.resize(1);
    ry_.resize(1);
    stats_.ranks.resize(1);
    const Timer t;
    track_store(top_lu_, from_f64(a.dense_block(0, 0)));
    getrf(top_lu_, top_piv_);
    if (opt_.record_tasks) stats_.tasks.push_back({0, "top", 0, t.seconds()});
    return;
  }
  Workspace w;
  w.a = &a;
  prepare(w);

  // Build the DAG: one task per (phase, cluster), edges = the phase bodies'
  // true read/write sets. Within a level: fill -> basis -> project ->
  // eliminate -> col_solve -> schur per block row; NO eliminate -> eliminate
  // edges (the paper's "no trailing sub-matrix dependencies"). Across
  // levels: schur -> merge -> {fill, basis, project} of the parent level, so
  // level L-1 starts while level L still drains. The ablations are shapes
  // of this graph: Sequential mode swaps a level's eliminate/col_solve/
  // schur tasks for a chain of one trailing-update task per pivot, and the
  // PhaseLoops shape adds a barrier between consecutive phase groups.
  TaskGraph g;
  const int d = depth_;
  std::vector<std::vector<TaskId>> t_ry(d + 1), t_fill(d + 1), t_basis(d + 1),
      t_project(d + 1), t_elim(d + 1), t_col(d + 1);
  // Producer of each cur[level] block: leaf assembly or a parent merge.
  std::vector<std::map<Key, TaskId>> t_producer(d + 1), t_schur(d + 1);
  // Compute tasks per (level, phase) in emission order — the groups the
  // PhaseLoops shape separates with barriers. Every edge runs from an
  // earlier group to a later one (or stays inside a group).
  std::vector<std::vector<TaskId>> phases;
  const auto phase = [&phases] { phases.emplace_back(); };

  auto dep = [&](TaskId before, TaskId after) {
    if (before >= 0) g.add_dependency(before, after);
  };
  const auto add = [&](std::function<void()> body, const char* label,
                       int owner, int level) {
    const TaskId t = g.add_task(std::move(body), label, owner, level);
    phases.back().push_back(t);
    return t;
  };

  // Per-task output payloads for the distributed model (DagRecord::out_bytes,
  // charged by the alpha-beta CommModel on cross-rank edges). The byte counts
  // depend on the skeleton ranks the numerics choose, so each task captures
  // its formula at FREE time — inside its own closure, right after its body
  // runs: its outputs exist and nothing it measures has been released yet
  // (release tasks depend on it). The pre-release design evaluated the
  // formulas post-hoc over retained state (ry_, fill_p) — exactly the blocks
  // the release tasks now free mid-run.
  const auto add_noted = [&](std::function<void()> body,
                             std::function<double()> bytes, const char* label,
                             int owner, int level) {
    if (!opt_.record_tasks) return add(std::move(body), label, owner, level);
    // The closure needs its own TaskId, which add_task only mints afterwards.
    auto id = std::make_shared<TaskId>(-1);
    const TaskId t = add(
        [body = std::move(body), bytes = std::move(bytes), &g, id] {
          body();
          g.set_out_bytes(*id, bytes());
        },
        label, owner, level);
    *id = t;
    return t;
  };

  // ry factors have no predecessors; every level's basis phase may consume
  // the ry of any ancestor level, so emit them all up front.
  for (int l = 1; l <= d; ++l) {
    phase();
    const int nb = tree_->n_clusters(l);
    t_ry[l].resize(nb);
    for (int i = 0; i < nb; ++i) {
      t_ry[l][i] = add_noted(
          [this, &w, l, i] { body_ry(w, l, i); },
          [this, l, i] {
            double b = 0.0;  // rank x rank R factor per admissible partner
            for (const int j : structure_.admissible_cols(l, i)) {
              const Matrix& r = ry_[l].at({i, j});
              b += static_cast<double>(r.rows()) * r.cols();
            }
            return static_cast<double>(sizeof(T)) * b;
          },
          "ry", i, l);
    }
  }

  // Leaf assembly: the producers of cur[depth].
  {
    phase();
    const int nb = tree_->n_clusters(d);
    std::vector<TaskId> t_asm(nb);
    for (int i = 0; i < nb; ++i) {
      t_asm[i] = add_noted(
          [this, &w, i] { body_assemble(w, depth_, i); },
          [this, i] {
            const double pts = tree_->node(depth_, i).size();
            double b = pts * pts;  // the diagonal block
            for (const int j : structure_.dense_cols(depth_, i))
              b += pts * tree_->node(depth_, j).size();
            return static_cast<double>(sizeof(T)) * b;
          },
          "assemble", i, d);
    }
    for (const auto& [i, j] : structure_.inadmissible_pairs(d))
      t_producer[d][{i, j}] = t_asm[i];
  }

  for (int level = d; level >= 1; --level) {
    const int nb = tree_->n_clusters(level);
    const bool leaf = (level == d);
    // basis(l+1, c) transitively orders all of c's subtree bases, so one
    // child edge is enough wherever a task needs a whole subtree projected.
    auto child_basis = [&](int c) { return leaf ? -1 : t_basis[level + 1][c]; };

    // P0: needs the subtree bases of row i and of every admissible partner.
    phase();
    std::vector<TaskId> t_plr(nb);
    for (int i = 0; i < nb; ++i) {
      const TaskId t = add_noted(
          [this, &w, level, i] { body_project_lr(w, level, i); },
          // Measured off the produced factors themselves ((size_i + size_j) x
          // rank each): level sizes/ranks are not set yet when this task
          // finishes, and the ry blocks it used to read get released.
          [this, &w, level, i] {
            double b = 0.0;  // U and V factors in current coordinates
            for (const int j : structure_.admissible_cols(level, i)) {
              const Matrix& u = w.ucur[level].at({i, j});
              const Matrix& v = w.vcur[level].at({i, j});
              b += static_cast<double>(u.rows()) * u.cols() +
                   static_cast<double>(v.rows()) * v.cols();
            }
            return static_cast<double>(sizeof(T)) * b;
          },
          "project_lr", i, level);
      dep(child_basis(2 * i), t);
      dep(child_basis(2 * i + 1), t);
      for (const int j : structure_.admissible_cols(level, i)) {
        dep(child_basis(2 * j), t);
        dep(child_basis(2 * j + 1), t);
      }
      t_plr[i] = t;
    }

    // B1: needs row k's merged/assembled blocks.
    phase();
    t_fill[level].assign(nb, -1);
    if (opt_.fillin_augmentation) {
      for (int k = 0; k < nb; ++k) {
        if (structure_.dense_cols(level, k).empty()) continue;
        const TaskId t = add_noted(
            [this, &w, level, k] { body_fill(w, level, k); },
            [&w, level, k] {
              const Matrix& p = w.fill_p[level][k];
              return static_cast<double>(sizeof(T)) * static_cast<double>(p.rows()) * p.cols();
            },
            "fill", k, level);
        dep(t_producer[level].at({k, k}), t);
        for (const int j : structure_.dense_cols(level, k))
          dep(t_producer[level].at({k, j}), t);
        t_fill[level][k] = t;
      }
    }

    // B2: needs row i's fill spaces + low-rank factors + subtree bases +
    // the ry of this row and of every ancestor's row.
    phase();
    t_basis[level].resize(nb);
    for (int i = 0; i < nb; ++i) {
      const TaskId t = add_noted(
          [this, &w, level, i] { body_basis(w, level, i); },
          [this, level, i] {
            const double s = levels_[level].size[i];
            return static_cast<double>(sizeof(T)) * s * s;  // the square orthonormal basis Q
          },
          "basis", i, level);
      dep(t_plr[i], t);
      dep(child_basis(2 * i), t);
      dep(child_basis(2 * i + 1), t);
      dep(t_ry[level][i], t);
      for (int lambda = 1; lambda < level; ++lambda)
        dep(t_ry[lambda][i >> (level - lambda)], t);
      if (opt_.fillin_augmentation) {
        for (const int k : structure_.dense_cols(level, i)) {
          dep(t_fill[level][k], t);
          dep(t_producer[level].at({i, k}), t);
        }
      }
      t_basis[level][i] = t;
    }

    // P1: needs this row's basis and every partner's basis, plus the row's
    // blocks (which it frees — hence the explicit fill(k) edge: the fill of
    // pivot k reads row k before its projection recycles it).
    phase();
    t_project[level].resize(nb);
    for (int i = 0; i < nb; ++i) {
      const TaskId t = add_noted(
          [this, &w, level, i] { body_project_row(w, level, i); },
          [this, level, i] {
            const Level& ld = levels_[level];
            double b = static_cast<double>(ld.size[i]) * ld.size[i];
            for (const int j : structure_.dense_cols(level, i))
              b += static_cast<double>(ld.size[i]) * ld.size[j];
            for (const int j : structure_.admissible_cols(level, i))
              b += static_cast<double>(ld.rank[i]) * ld.rank[j];
            return static_cast<double>(sizeof(T)) * b;
          },
          "project", i, level);
      dep(t_basis[level][i], t);
      dep(t_fill[level][i], t);
      dep(t_producer[level].at({i, i}), t);
      for (const int j : structure_.dense_cols(level, i)) {
        dep(t_basis[level][j], t);
        dep(t_producer[level].at({i, j}), t);
      }
      for (const int j : structure_.admissible_cols(level, i))
        dep(t_basis[level][j], t);
      t_project[level][i] = t;
    }

    // The factored diagonal (RR + its RS/SR strips) plus the solved
    // redundant row strips of every dense neighbor.
    const auto eliminate_bytes = [this, level](int k) {
      return [this, level, k] {
        const Level& ld = levels_[level];
        const double nr = ld.size[k] - ld.rank[k];
        double b = nr * ld.size[k] + static_cast<double>(ld.rank[k]) * nr;
        for (const int j : structure_.dense_cols(level, k))
          b += nr * ld.size[j];
        return static_cast<double>(sizeof(T)) * b;
      };
    };

    if (opt_.mode == UlvMode::Sequential) {
      // The Sec. II.D baseline: one task per pivot, chained in pivot order —
      // pivot k's trailing updates must land before pivot k+1 reads them.
      // The chain head waits on every projection of the level (the rest of
      // the chain inherits that through its k-1 -> k edges), and the tail
      // stands in for every Schur target: the merges and the skeleton
      // releases of the level hang off it.
      phase();
      TaskId prev = -1;
      for (int k = 0; k < nb; ++k) {
        const TaskId t = add_noted(
            [this, level, k] { body_eliminate_trailing(level, k); },
            eliminate_bytes(k), "eliminate", k, level);
        if (prev < 0) {
          for (const TaskId pt : t_project[level]) dep(pt, t);
        } else {
          dep(prev, t);
        }
        prev = t;
      }
      for (const auto& [i, j] : structure_.inadmissible_pairs(level))
        t_schur[level][{i, j}] = prev;
      for (const auto& [i, j] : structure_.admissible_pairs(level))
        t_schur[level][{i, j}] = prev;
    } else {
      // E1: one independent task per block row — no edges among them.
      phase();
      t_elim[level].resize(nb);
      for (int k = 0; k < nb; ++k) {
        const TaskId t =
            add_noted([this, level, k] { body_eliminate(level, k); },
                      eliminate_bytes(k), "eliminate", k, level);
        dep(t_project[level][k], t);
        t_elim[level][k] = t;
      }

      // E2: column strips share blocks with the row tasks of their dense
      // neighbors (same-block exclusion, not a data chain).
      phase();
      t_col[level].resize(nb);
      for (int k = 0; k < nb; ++k) {
        const TaskId t = add_noted(
            [this, level, k] { body_col_solve(level, k); },
            [this, level, k] {
              const Level& ld = levels_[level];
              const double nr = ld.size[k] - ld.rank[k];
              double b = 0.0;  // the solved redundant column strips
              for (const int i : structure_.dense_rows(level, k))
                b += static_cast<double>(ld.size[i]) * nr;
              return static_cast<double>(sizeof(T)) * b;
            },
            "col_solve", k, level);
        dep(t_elim[level][k], t);
        for (const int i : structure_.dense_rows(level, k))
          dep(t_elim[level][i], t);
        t_col[level][k] = t;
      }

      // E3: per stored target; reads the solved strips of every qualifying
      // pivot k, all final once col_solve(k) ran.
      phase();
      auto emit_schur = [&](int i, int j, bool admissible) {
        const TaskId t = add_noted(
            [this, level, i, j, admissible] {
              body_schur(level, i, j, admissible);
            },
            [this, level, i, j] {
              const Level& ld = levels_[level];
              return static_cast<double>(sizeof(T)) *
                     static_cast<double>(ld.rank[i]) * ld.rank[j];
            },
            "schur", i, level);
        dep(t_project[level][i], t);
        for (const int k : schur_k_list(level, i, j)) dep(t_col[level][k], t);
        t_schur[level][{i, j}] = t;
      };
      for (const auto& [i, j] : structure_.inadmissible_pairs(level))
        emit_schur(i, j, false);
      for (const auto& [i, j] : structure_.admissible_pairs(level))
        emit_schur(i, j, true);

      if (opt_.measure_dropped) {
        phase();
        for (int k = 0; k < nb; ++k) {
          const TaskId t = add([this, level, k] { body_dropped(level, k); },
                               "dropped", k, level);
          // Reads pivot k's solved strips FULL-width: col_solve(j) of every
          // dense neighbor still writes the right columns of (k, j).
          dep(t_col[level][k], t);
          for (const int j : structure_.dense_cols(level, k))
            dep(t_col[level][j], t);
        }
      }
    }

    // M: the four child targets feed one parent block; the merge is the
    // producer the next level's fill/basis/project wait on — and the only
    // cross-level synchronization there is.
    phase();
    for (const auto& [pi, pj] : structure_.inadmissible_pairs(level - 1)) {
      const TaskId t = add_noted(
          [this, &w, level, pi, pj] { body_merge(w, level, pi, pj); },
          [this, level, pi, pj] {
            const Level& ld = levels_[level];
            // The merged parent block: what actually crosses subtree
            // boundaries on the way up the process tree.
            return static_cast<double>(sizeof(T)) *
                   static_cast<double>(ld.rank[2 * pi] + ld.rank[2 * pi + 1]) *
                   (ld.rank[2 * pj] + ld.rank[2 * pj + 1]);
          },
          "merge", pi, level - 1);
      // Distinct producers only: a Sequential level's targets share one.
      std::vector<TaskId> targets;
      for (int ci = 2 * pi; ci <= 2 * pi + 1; ++ci)
        for (int cj = 2 * pj; cj <= 2 * pj + 1; ++cj)
          targets.push_back(t_schur[level].at({ci, cj}));
      std::sort(targets.begin(), targets.end());
      targets.erase(std::unique(targets.begin(), targets.end()),
                    targets.end());
      for (const TaskId s : targets) dep(s, t);
      t_producer[level - 1][{pi, pj}] = t;
    }
  }

  phase();
  const TaskId t_top = add([this, &w] { body_top(w); }, "top", 0, 0);
  dep(t_producer[0].at({0, 0}), t_top);

  // Reference-counted block release: every edge added above is a read of its
  // producer's output, so a block's consumer count IS its producer's
  // successor count at this point. A release task depending on the producer
  // plus a snapshot of those successors therefore fires the moment the last
  // consumer retires — the TaskGraph's dependency counter is the block's
  // reference count. This is what bounds peak memory at O(active levels):
  // without it every ry factor, fill space, and skeleton block of the whole
  // tree stays live until the factorization ends (the release_blocks=false
  // ablation, which bench_fig9 baselines against).
  std::vector<TaskId> releases;
  if (opt_.release_blocks) {
    // Per-level release tasks whose drops go through refs into pre-keyed
    // containers; the level-complete remnant task below clears the
    // containers themselves, so it must run after these.
    std::vector<std::vector<TaskId>> level_releases(d + 1);
    // Consumers are compute tasks only: a Sequential chain tail produces
    // every skeleton block of its level, and its earlier releases must not
    // count as readers of the later ones.
    const TaskId n_compute = g.n_tasks();
    const auto add_release = [&](std::function<void()> fn, int owner, int level,
                                 TaskId producer) {
      const std::vector<TaskId> consumers = g.successors()[producer];
      const TaskId t = g.add_task(std::move(fn), "release", owner, level);
      g.add_dependency(producer, t);
      for (const TaskId c : consumers)
        if (c < n_compute) g.add_dependency(c, t);
      releases.push_back(t);
      level_releases[level].push_back(t);
    };
    for (int l = 1; l <= d; ++l) {
      const int nb = tree_->n_clusters(l);
      // ry factors: last readers are the basis tasks of this level and of
      // every descendant level (ancestor gathers) — all in the snapshot.
      for (int i = 0; i < nb; ++i)
        add_release([this, l, i] { release_ry_row(l, i); }, i, l, t_ry[l][i]);
      // Fill spaces: read by the basis tasks of their dense neighbors and
      // anti-ordered against project(k).
      for (int k = 0; k < nb; ++k)
        if (t_fill[l][k] >= 0)
          add_release([this, &w, l, k] { track_drop(w.fill_p[l][k]); }, k, l,
                      t_fill[l][k]);
      // Skeleton (SS) blocks of admissible pairs: last writer is the schur
      // update, last reader the parent merge. (Inadmissible SS parts live in
      // the dense blocks, which the solve needs — never released.)
      for (const auto& [i, j] : structure_.admissible_pairs(l))
        add_release([this, l, i, j] { release_skel_block(l, i, j); }, i, l,
                    t_schur[l].at({i, j}));
    }
    // Level-complete cleanup: once every project of level l (the per-block
    // cur/ucur/vcur frees), every per-block release of level l (the map
    // values), and — transitively through the skel releases — every merge
    // into level l-1 has retired, the level's containers are exclusively
    // ours to clear.
    for (int l = 1; l <= d; ++l) {
      const TaskId t = g.add_task(
          [this, &w, l] { release_level_remnants(w, l); }, "release_level", 0, l);
      for (const TaskId p : t_project[l]) g.add_dependency(p, t);
      for (const TaskId r : level_releases[l]) g.add_dependency(r, t);
      for (const auto& [key, mt] : t_producer[l - 1]) g.add_dependency(mt, t);
      releases.push_back(t);
    }
  }

  // Bulk-synchronous shape: added after the releases, whose consumer
  // snapshots must see only true readers.
  if (opt_.executor == UlvExecutor::PhaseLoops)
    add_phase_barriers(
        phases, [&g] { return g.add_task([] {}, "barrier"); },
        [&g](TaskId before, TaskId after) { g.add_dependency(before, after); });

  // Bottom-level priorities: the same ranking the scheduling simulator
  // list-schedules by, now driving the real executor.
  g.set_critical_path_priorities();
  // Releases preempt compute the moment they fire: a ready release is
  // microseconds of pointer work that returns megabytes. Left at their
  // structural rank (sinks: bottom level 1) they would queue behind a whole
  // level's compute and hold blocks exactly as long as the no-release
  // ablation does.
  if (!releases.empty()) {
    const double top_rank =
        1.0 + *std::max_element(g.priorities().begin(), g.priorities().end());
    for (const TaskId t : releases) g.set_priority(t, top_rank);
  }

  // Execute on the engine's pool — unless this thread is one of its workers
  // (e.g. a factorization submitted onto the global pool): execute() blocks
  // its caller, so feeding the DAG to our own pool could deadlock it. That
  // case runs on a temporary pool of the same size.
  std::unique_ptr<ThreadPool> temporary;
  ThreadPool* pool = pool_;
  if (pool == ThreadPool::current()) {
    temporary = std::make_unique<ThreadPool>(pool->size());
    pool = temporary.get();
  }
  ExecStats ex = g.execute(*pool);

  {
    // Setup time = wall clock during which basis-construction work was in
    // flight: the interval union of the setup-phase task spans (P0..P1; ry
    // and assemble excluded). On one worker the union degenerates to the
    // phase-duration sum, and on any worker count it stays within the
    // execution wall time, so factor_seconds >= setup_seconds holds.
    std::vector<std::pair<double, double>> spans;
    for (const auto& r : ex.records)
      if (r.label == "project_lr" || r.label == "fill" || r.label == "basis" ||
          r.label == "project")
        spans.emplace_back(r.t_start, r.t_end);
    std::sort(spans.begin(), spans.end());
    double setup = 0.0, open_until = -1.0;
    for (const auto& [t0, t1] : spans) {
      setup += std::max(0.0, t1 - std::max(t0, open_until));
      open_until = std::max(open_until, t1);
    }
    stats_.setup_seconds = setup;
  }
  stats_.peak_block_bytes = ex.peak_block_bytes;
  stats_.final_block_bytes = ex.live_block_bytes;
  if (opt_.record_tasks) {
    // The flat log is a view of the trace: compute kinds only (see
    // UlvStats::tasks).
    static constexpr const char* kKinds[] = {
        "project_lr", "fill", "basis", "project", "eliminate",
        "col_solve",  "schur", "merge", "top"};
    for (const TaskRecord& r : ex.records)
      for (const char* kind : kKinds)
        if (r.label == kind) {
          stats_.tasks.push_back({r.level, kind, r.owner, r.duration()});
          break;
        }
    stats_.dag = g.record();
    stats_.exec = std::move(ex);
  }
}

template <class T>
double UlvEngine<T>::logabsdet() const {
  // Reads outside the solve sweep pin explicitly: every diagonal block plus
  // the top factor, faulted in as needed and released when done.
  std::vector<SpillStore::SlotId> pinned;
  if (store_ != nullptr) {
    for (int level = 1; level <= depth_; ++level)
      for (int k = 0; k < levels_[level].nb; ++k) {
        const auto it = dslot_[level].find({k, k});
        if (it != dslot_[level].end()) pinned.push_back(it->second.first);
      }
    if (topslot_ != SpillStore::kNoSlot) pinned.push_back(topslot_);
    store_->pin(pinned);
  }
  double acc = 0.0;
  for (int level = depth_; level >= 1; --level) {
    const Level& ld = levels_[level];
    for (int k = 0; k < ld.nb; ++k) {
      const int r = ld.rank[k], n = ld.size[k];
      if (n == r) continue;
      const Matrix& dkk = ld.dense.at({k, k});
      for (int d = r; d < n; ++d) acc += std::log(std::fabs(dkk(d, d)));
    }
  }
  for (int d = 0; d < top_lu_.rows(); ++d)
    acc += std::log(std::fabs(top_lu_(d, d)));
  if (store_ != nullptr) store_->unpin(pinned);
  return acc;
}

template class UlvEngine<double>;
template class UlvEngine<float>;

// ---------------------------------------------------------------------------
// UlvFactorization: the precision-dispatching facade.
// ---------------------------------------------------------------------------

UlvFactorization::UlvFactorization(const H2Matrix& a, const UlvOptions& opt) {
  if (opt.precision == Precision::F32) {
    f_ = std::make_unique<UlvEngine<float>>(a, opt);
  } else {
    d_ = std::make_unique<UlvEngine<double>>(a, opt);
  }
}

UlvFactorization::~UlvFactorization() = default;

void UlvFactorization::solve(MatrixView b) const {
  if (f_ != nullptr) {
    // Round the rhs to fp32 once, sweep in fp32, widen the result back.
    // One backward-stable reduced-precision solve: callers wanting fp64
    // residuals refine against the fp64 operator (core/refine).
    MatrixF bf = to_f32(b);
    f_->solve(bf);
    convert_into(bf, b);
    return;
  }
  d_->solve(b);
}

double UlvFactorization::logabsdet() const {
  return f_ != nullptr ? f_->logabsdet() : d_->logabsdet();
}

const UlvStats& UlvFactorization::stats() const {
  return f_ != nullptr ? f_->stats() : d_->stats();
}

int UlvFactorization::depth() const {
  return f_ != nullptr ? f_->depth() : d_->depth();
}

int UlvFactorization::rank(int level, int lid) const {
  return f_ != nullptr ? f_->rank(level, lid) : d_->rank(level, lid);
}

ExecStats UlvFactorization::last_solve_stats() const {
  return f_ != nullptr ? f_->last_solve_stats() : d_->last_solve_stats();
}

std::uint64_t UlvFactorization::solve_stats_generation() const {
  return f_ != nullptr ? f_->solve_stats_generation()
                       : d_->solve_stats_generation();
}

const DagRecord& UlvFactorization::solve_dag() const {
  return f_ != nullptr ? f_->solve_dag() : d_->solve_dag();
}

SpillStats UlvFactorization::spill_stats() const {
  return f_ != nullptr ? f_->spill_stats() : d_->spill_stats();
}

bool UlvFactorization::demote_to_disk(const std::string& dir) {
  return f_ != nullptr ? f_->demote_to_disk(dir) : d_->demote_to_disk(dir);
}

void UlvFactorization::promote() {
  if (f_ != nullptr) {
    f_->promote();
  } else {
    d_->promote();
  }
}

}  // namespace h2
