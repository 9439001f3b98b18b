#include <algorithm>
#include <functional>
#include <cassert>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>

#include "core/ulv_factorization.hpp"
#include "linalg/gemm_kernel.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/thread_pool.hpp"
#include "util/env.hpp"

namespace h2 {

/// Per-solve working state: the right-hand side as it migrates through the
/// levels (Eqs. 16-19). One instance per solve call, so concurrent solves on
/// one factorization never share mutable state. The migrating vectors are
/// stored PER LEVEL so the DAG can overlap levels without write-after-read
/// hazards.
template <class T>
struct UlvEngine<T>::SolveScratch {
  int nrhs = 1;
  /// s[level][c]: skeleton part of the transformed rhs (rank x nrhs).
  std::vector<std::vector<Matrix>> s;
  /// z[level][c]: redundant part ((size-rank) x nrhs). The forward pass
  /// solves it to z; the backward pass downdates it to y. The final
  /// triangular solve y -> x^R happens OUT of place inside sbody_combine,
  /// so z[level][c] still holds y after the level is done — which is what
  /// lets the backward DAG reuse the forward edges reversed, with no
  /// write-after-read edge for the trsm.
  std::vector<std::vector<Matrix>> z;
  /// xs[level][c]: skeleton part of the solution (backward pass).
  std::vector<std::vector<Matrix>> xs;
  /// rhs[level][p]: merged rhs entering `level` (written by level+1's
  /// merges; rhs[0][0] is the root rhs, solved in place by the top task).
  std::vector<std::vector<Matrix>> rhs;
  /// x[level][c]: per-cluster solution leaving `level` in current
  /// coordinates (backward pass; the leaf level writes into b instead).
  std::vector<std::vector<Matrix>> x;
};

template <class T>
void UlvEngine<T>::init_solve_scratch(UlvEngine<T>::SolveScratch& s, int nrhs) const {
  s.nrhs = nrhs;
  s.s.resize(depth_ + 1);
  s.z.resize(depth_ + 1);
  s.xs.resize(depth_ + 1);
  s.rhs.resize(depth_ + 1);
  s.x.resize(depth_ + 1);
  s.rhs[0].resize(1);
  for (int l = 1; l <= depth_; ++l) {
    const int nb = levels_[l].nb;
    s.s[l].resize(nb);
    s.z[l].resize(nb);
    s.xs[l].resize(nb);
    s.x[l].resize(nb);
    if (l < depth_) s.rhs[l].resize(nb);
  }
}

// ---------------------------------------------------------------------------
// Solve bodies — one (phase, cluster) unit each. Every migrating block has
// a single totally-ordered writer chain (transform -> subst -> y for z,
// transform -> down for s, ...), so any schedule that respects the recorded
// edges produces the same bits.
//
// Every body doing arithmetic opens a WidthStableScope gated on
// opt_.width_stable_solve, making its gemm dispatch independent of nrhs
// (see UlvOptions::width_stable_solve). The scope lives INSIDE the bodies —
// not around the solve() entry point — because the dispatch flag is
// thread_local and the DAG executor runs bodies on arbitrary pool workers;
// only the body itself executes on the thread whose flag matters.
// (sbody_merge and sbody_xsplit are pure copies and need none.)
// ---------------------------------------------------------------------------

template <class T>
void UlvEngine<T>::sbody_transform(UlvEngine<T>::SolveScratch& s, ConstMatrixView b,
                                       int level, int c) const {
  // b_hat = Q^T b, split into skeleton and redundant parts.
  const detail::WidthStableScope ws(opt_.width_stable_solve);
  const Level& ld = levels_[level];
  const int nrhs = s.nrhs;
  ConstMatrixView src =
      (level == depth_)
          ? b.block(tree_->node(depth_, c).begin, 0,
                    tree_->node(depth_, c).size(), nrhs)
          : ConstMatrixView(s.rhs[level][c]);
  const Matrix bhat = matmul(ld.q[c], src, Trans::Yes, Trans::No);
  s.s[level][c] = Matrix::from(bhat.block(0, 0, ld.rank[c], nrhs));
  s.z[level][c] =
      Matrix::from(bhat.block(ld.rank[c], 0, ld.size[c] - ld.rank[c], nrhs));
}

template <class T>
void UlvEngine<T>::sbody_subst(UlvEngine<T>::SolveScratch& s, int level, int k) const {
  // Forward substitution on the redundant variables of pivot k. The [R,R]
  // strips were pre-solved by the factorization, so the diagonal solve comes
  // first and the dense-neighbor couplings (i < k only) are subtracted with
  // already-final z_i — the one sequential chain of the sweep, O(N) total.
  const detail::WidthStableScope ws(opt_.width_stable_solve);
  const Level& ld = levels_[level];
  auto& zl = s.z[level];
  const int rk = ld.rank[k], nrk = ld.size[k] - rk;
  if (nrk == 0) return;
  MatrixView zk = zl[k];
  laswp(zk, ld.rr_piv[k], /*forward=*/true);
  ConstMatrixView rr = ld.dense.at({k, k}).block(rk, rk, nrk, nrk);
  trsm(Side::Left, UpLo::Lower, Trans::No, Diag::Unit, 1.0, rr, zk);
  for (const int i : structure_.dense_cols(level, k)) {
    if (i >= k) break;  // sorted: couplings below the block diagonal only
    const int nri = ld.size[i] - ld.rank[i];
    if (nri == 0) continue;
    gemm(-1.0, ld.dense.at({k, i}).block(rk, ld.rank[i], nrk, nri), Trans::No,
         zl[i], Trans::No, 1.0, zk);
  }
}

template <class T>
void UlvEngine<T>::sbody_down(UlvEngine<T>::SolveScratch& s, int level, int i) const {
  // Downdate the skeleton rhs with the L_SR strips: b^S_i -= sum_k
  // D(i,k)[S,R] z_k over the diagonal and every dense partner.
  const detail::WidthStableScope ws(opt_.width_stable_solve);
  const Level& ld = levels_[level];
  auto& zl = s.z[level];
  const int ri = ld.rank[i];
  if (ri == 0) return;
  MatrixView si = s.s[level][i];
  auto update = [&](int k) {
    const int rk = ld.rank[k], nrk = ld.size[k] - rk;
    if (nrk == 0) return;
    gemm(-1.0, ld.dense.at({i, k}).block(0, rk, ri, nrk), Trans::No, zl[k],
         Trans::No, 1.0, si);
  };
  update(i);
  for (const int k : structure_.dense_cols(level, i)) update(k);
}

template <class T>
void UlvEngine<T>::sbody_merge(UlvEngine<T>::SolveScratch& s, int level, int p) const {
  // Merge sibling skeleton parts into the parent rhs (Eq. 22's rhs analog).
  s.rhs[level - 1][p] =
      vconcat({s.s[level][2 * p], s.s[level][2 * p + 1]});
}

template <class T>
void UlvEngine<T>::sbody_top(UlvEngine<T>::SolveScratch& s) const {
  const detail::WidthStableScope ws(opt_.width_stable_solve);
  getrs(top_lu_, top_piv_, s.rhs[0][0]);
}

template <class T>
void UlvEngine<T>::sbody_xsplit(UlvEngine<T>::SolveScratch& s, int level, int c) const {
  // Extract this cluster's skeleton solution from the parent-level solution
  // (the merge's mirror; the level-1 parent is the top solve's root vector).
  const Level& ld = levels_[level];
  const Matrix& xp = (level == 1) ? s.rhs[0][0] : s.x[level - 1][c / 2];
  const int row0 = (c % 2 == 0) ? 0 : ld.rank[c - 1];
  s.xs[level][c] = Matrix::from(xp.block(row0, 0, ld.rank[c], s.nrhs));
}

template <class T>
void UlvEngine<T>::sbody_y(UlvEngine<T>::SolveScratch& s, int level, int k) const {
  // y_k = z_k - sum_{j>k} [R,R]strip y_j - sum_j [R,S]strip x^S_j. The y_j
  // it reads are final (their own RR and RS updates done), pre-triangular-
  // solve values — the triangular solve happens out of place in
  // sbody_combine, so z keeps holding y.
  const detail::WidthStableScope ws(opt_.width_stable_solve);
  const Level& ld = levels_[level];
  auto& zl = s.z[level];
  auto& xsl = s.xs[level];
  const int rk = ld.rank[k], nrk = ld.size[k] - rk;
  if (nrk == 0) return;
  MatrixView yk = zl[k];
  const auto& cols = structure_.dense_cols(level, k);
  for (auto it = cols.rbegin(); it != cols.rend(); ++it) {
    const int j = *it;
    if (j <= k) break;  // sorted: couplings above the block diagonal only
    const int nrj = ld.size[j] - ld.rank[j];
    if (nrj == 0) continue;
    gemm(-1.0, ld.dense.at({k, j}).block(rk, ld.rank[j], nrk, nrj), Trans::No,
         zl[j], Trans::No, 1.0, yk);
  }
  auto update_rs = [&](int j) {
    if (ld.rank[j] == 0) return;
    gemm(-1.0, ld.dense.at({k, j}).block(rk, 0, nrk, ld.rank[j]), Trans::No,
         xsl[j], Trans::No, 1.0, yk);
  };
  update_rs(k);
  for (const int j : cols) update_rs(j);
}

template <class T>
void UlvEngine<T>::sbody_combine(UlvEngine<T>::SolveScratch& s, MatrixView b, int level,
                                     int c) const {
  // x^R_c = U_c^-1 y_c (out of place — see SolveScratch::z), then
  // x = Q [x^S; x^R] back in current coordinates; the leaf level scatters
  // straight into b.
  const detail::WidthStableScope ws(opt_.width_stable_solve);
  const Level& ld = levels_[level];
  const int nrhs = s.nrhs, rc = ld.rank[c], nrc = ld.size[c] - rc;
  Matrix xhat(ld.size[c], nrhs);
  if (rc > 0) copy_into(s.xs[level][c], xhat.block(0, 0, rc, nrhs));
  if (nrc > 0) {
    Matrix xr = s.z[level][c];
    ConstMatrixView rr = ld.dense.at({c, c}).block(rc, rc, nrc, nrc);
    trsm(Side::Left, UpLo::Upper, Trans::No, Diag::NonUnit, 1.0, rr,
         MatrixView(xr));
    copy_into(xr, xhat.block(rc, 0, nrc, nrhs));
  }
  Matrix xc = matmul(ld.q[c], xhat);
  if (level == depth_) {
    const ClusterNode& nd = tree_->node(depth_, c);
    copy_into(xc, b.block(nd.begin, 0, nd.size(), nrhs));
  } else {
    s.x[level][c] = std::move(xc);
  }
}

// ---------------------------------------------------------------------------
// Plan and execution.
// ---------------------------------------------------------------------------

template <class T>
void UlvEngine<T>::build_spill_plan() {
  // Chunk the solve sweep into pin steps. Per level the forward phases
  // (xform, subst, down) and backward phases (y descending, combine) each
  // chunk their clusters to ~budget/4 bytes of factor reads — small enough
  // that one pinned chunk plus the prefetcher's read-ahead fit the budget,
  // large enough to amortize the step barrier. Every solve body's factor
  // reads are row-local ({row,*} dense keys plus the row's basis), so a
  // chunk's slot list is exact, and the phase orders match the recorded
  // solve edges (subst ascends, y descends), so the per-step tasks
  // solve_via_dag adds can never create a cycle (see the merge note below
  // for the PhaseLoops shape).
  std::vector<std::vector<SpillStore::SlotId>> steps;
  if (depth_ == 0) {
    n_spill_steps_ = 0;
    store_->seal(std::move(steps));
    return;
  }
  const std::uint64_t target =
      std::max<std::uint64_t>(store_->stats().budget_bytes / 4, 1);
  spill_plan_.assign(depth_ + 1, {});
  auto add_step = [&steps](std::vector<SpillStore::SlotId>&& ids) {
    steps.push_back(std::move(ids));
    return static_cast<int>(steps.size()) - 1;
  };
  // append_cluster(c, ids) appends cluster c's slots, returning their bytes.
  auto chunked = [&](int nb, bool desc, auto&& append_cluster) {
    SpillChunks P;
    P.step_of.assign(nb, -1);
    int i = 0;
    while (i < nb) {
      std::vector<SpillStore::SlotId> ids;
      std::uint64_t got = 0;
      const int first = i;
      do {
        got += append_cluster(desc ? nb - 1 - i : i, ids);
        ++i;
      } while (i < nb && got < target);
      const int step = add_step(std::move(ids));
      for (int j = first; j < i; ++j) P.step_of[desc ? nb - 1 - j : j] = step;
      P.chunks.push_back({step, first, i});
    }
    return P;
  };
  auto row_slots = [&](int l) {
    return [this, l](int r, std::vector<SpillStore::SlotId>& ids) {
      std::uint64_t b = 0;
      auto it = dslot_[l].lower_bound({r, std::numeric_limits<int>::min()});
      for (; it != dslot_[l].end() && it->first.first == r; ++it) {
        ids.push_back(it->second.first);
        b += it->second.second;
      }
      return b;
    };
  };
  for (int l = depth_; l >= 1; --l) {
    const int nb = levels_[l].nb;
    spill_plan_[l][0] = chunked(
        nb, false, [&](int c, std::vector<SpillStore::SlotId>& ids) {
          if (qslot_[l][c].first != SpillStore::kNoSlot)
            ids.push_back(qslot_[l][c].first);
          return qslot_[l][c].second;
        });
    spill_plan_[l][1] = chunked(nb, false, row_slots(l));
    spill_plan_[l][2] = chunked(nb, false, row_slots(l));
  }
  top_step_ = add_step(topslot_ != SpillStore::kNoSlot
                           ? std::vector<SpillStore::SlotId>{topslot_}
                           : std::vector<SpillStore::SlotId>{});
  for (int l = 1; l <= depth_; ++l) {
    const int nb = levels_[l].nb;
    spill_plan_[l][3] = chunked(nb, true, row_slots(l));
    spill_plan_[l][4] = chunked(
        nb, false, [&](int c, std::vector<SpillStore::SlotId>& ids) {
          std::uint64_t b = qslot_[l][c].second;
          if (qslot_[l][c].first != SpillStore::kNoSlot)
            ids.push_back(qslot_[l][c].first);
          const auto it = dslot_[l].find({c, c});
          if (it != dslot_[l].end()) {
            ids.push_back(it->second.first);
            b += it->second.second;
          }
          return b;
        });
  }
  n_spill_steps_ = static_cast<int>(steps.size());
  // Step of every recorded solve task. Tasks without factor reads ride on a
  // step that respects their edges: merges on the down chunk of their odd
  // child; bwd_split/bwd_xs on their level's first y step (every y step of
  // the level is at or after it, every combine strictly after). Under the
  // PhaseLoops shape a merge waits for its level's whole down phase, so it
  // rides the LAST down chunk instead — an earlier step would put the step
  // task after it in front of down tasks it waits on (a cycle). The shape's
  // barriers read nothing and stay off the steps (-1).
  const bool bulk = opt_.executor == UlvExecutor::PhaseLoops;
  if (!solve_dag_.empty()) {
    task_step_.assign(solve_dag_.n_tasks(), -1);
    for (TaskId t = 0; t < solve_dag_.n_tasks(); ++t) {
      const int l = solve_dag_.meta[t].level, o = solve_dag_.meta[t].owner;
      switch (solve_kind_[t]) {
        case SolveKind::kFwdXform:
          task_step_[t] = spill_plan_[l][0].step_of[o];
          break;
        case SolveKind::kFwdSubst:
          task_step_[t] = spill_plan_[l][1].step_of[o];
          break;
        case SolveKind::kFwdDown:
          task_step_[t] = spill_plan_[l][2].step_of[o];
          break;
        case SolveKind::kFwdMerge:
          task_step_[t] = bulk ? spill_plan_[l][2].chunks.back()[0]
                               : spill_plan_[l][2].step_of[2 * o + 1];
          break;
        case SolveKind::kTop:
          task_step_[t] = top_step_;
          break;
        case SolveKind::kBwdSplit:
        case SolveKind::kBwdXs:
          task_step_[t] = spill_plan_[l][3].chunks.front()[0];
          break;
        case SolveKind::kBwdY:
          task_step_[t] = spill_plan_[l][3].step_of[o];
          break;
        case SolveKind::kBwdCombine:
          task_step_[t] = spill_plan_[l][4].step_of[o];
          break;
        case SolveKind::kBarrier:
          break;
      }
    }
  }
  store_->seal(std::move(steps));
}

template <class T>
void UlvEngine<T>::build_solve_plan() {
  // The solve's task structure depends only on the block structure — not on
  // ranks, the rhs, or nrhs — so it is recorded ONCE here and instantiated
  // per solve. Forward sweep: fwd_xform -> fwd_subst -> fwd_down ->
  // fwd_merge per level, the merges feeding the parent level's transforms
  // and finally "top". Backward sweep: every forward task gets a twin
  // (fwd_xform ~ bwd_combine, fwd_subst ~ bwd_y, fwd_down ~ bwd_xs,
  // fwd_merge ~ bwd_split) and every forward edge is reused REVERSED — the
  // backward substitution consumes values in exactly the mirrored order the
  // forward sweep produced them. bwd_split is a pure gate (the split's
  // children read their parent sub-blocks directly in bwd_xs).
  const int d = depth_;
  DagRecord rec;
  std::vector<SolveKind> kinds;
  auto add = [&rec, &kinds](SolveKind kind, const char* label, int owner,
                            int level) {
    rec.meta.push_back({label, owner, level});
    rec.successors.emplace_back();
    kinds.push_back(kind);
    return static_cast<TaskId>(rec.meta.size()) - 1;
  };
  std::vector<std::vector<TaskId>> t_xf(d + 1), t_su(d + 1), t_dn(d + 1),
      t_mg(d + 1);
  // Forward (level, phase) groups in sweep order, for the PhaseLoops shape.
  std::vector<std::vector<TaskId>> phases;
  std::vector<std::pair<TaskId, TaskId>> fwd_edges;
  auto edge = [&fwd_edges](TaskId u, TaskId v) { fwd_edges.emplace_back(u, v); };

  for (int level = d; level >= 1; --level) {
    const int nb = tree_->n_clusters(level);
    t_xf[level].resize(nb);
    t_su[level].resize(nb);
    t_dn[level].resize(nb);
    t_mg[level].resize(nb / 2);
    for (int c = 0; c < nb; ++c) {
      t_xf[level][c] = add(SolveKind::kFwdXform, "fwd_xform", c, level);
      if (level < d) edge(t_mg[level + 1][c], t_xf[level][c]);
    }
    for (int k = 0; k < nb; ++k) {
      t_su[level][k] = add(SolveKind::kFwdSubst, "fwd_subst", k, level);
      edge(t_xf[level][k], t_su[level][k]);
      for (const int i : structure_.dense_cols(level, k)) {
        if (i >= k) break;
        edge(t_su[level][i], t_su[level][k]);
      }
    }
    for (int i = 0; i < nb; ++i) {
      t_dn[level][i] = add(SolveKind::kFwdDown, "fwd_down", i, level);
      edge(t_xf[level][i], t_dn[level][i]);
      edge(t_su[level][i], t_dn[level][i]);
      for (const int k : structure_.dense_cols(level, i))
        edge(t_su[level][k], t_dn[level][i]);
    }
    for (int p = 0; p < nb / 2; ++p) {
      t_mg[level][p] = add(SolveKind::kFwdMerge, "fwd_merge", p, level);
      edge(t_dn[level][2 * p], t_mg[level][p]);
      edge(t_dn[level][2 * p + 1], t_mg[level][p]);
    }
    for (auto* group : {&t_xf, &t_su, &t_dn, &t_mg})
      phases.push_back((*group)[level]);
  }
  const TaskId t_top = add(SolveKind::kTop, "top", 0, 0);
  edge(t_mg[1][0], t_top);

  // Backward twins, appended in forward id order: bwd(t) = t_top + 1 + t.
  for (TaskId t = 0; t < t_top; ++t) {
    const TaskMeta& m = rec.meta[t];
    switch (kinds[t]) {
      case SolveKind::kFwdXform:
        add(SolveKind::kBwdCombine, "bwd_combine", m.owner, m.level);
        break;
      case SolveKind::kFwdSubst:
        add(SolveKind::kBwdY, "bwd_y", m.owner, m.level);
        break;
      case SolveKind::kFwdDown:
        add(SolveKind::kBwdXs, "bwd_xs", m.owner, m.level);
        break;
      default:
        add(SolveKind::kBwdSplit, "bwd_split", m.owner, m.level);
        break;
    }
  }
  auto bwd = [t_top](TaskId t) { return t_top + 1 + t; };
  for (const auto& [u, v] : fwd_edges) {
    rec.successors[u].push_back(v);
    // Reversed for the backward pass; the edge into "top" reverses into the
    // edge out of it (top is its own twin — the turning point of the solve).
    if (v == t_top)
      rec.successors[t_top].push_back(bwd(u));
    else
      rec.successors[bwd(v)].push_back(bwd(u));
  }
  // Bulk-synchronous shape: the backward groups are the forward groups'
  // twins in reverse order (split, xs, y, combine per level, root first).
  if (opt_.executor == UlvExecutor::PhaseLoops) {
    const std::size_t n_fwd = phases.size();
    phases.push_back({t_top});
    for (std::size_t i = n_fwd; i-- > 0;) {
      std::vector<TaskId> twins;
      for (const TaskId t : phases[i]) twins.push_back(bwd(t));
      phases.push_back(std::move(twins));
    }
    add_phase_barriers(
        phases,
        [&add] { return add(SolveKind::kBarrier, "barrier", -1, -1); },
        [&rec](TaskId u, TaskId v) { rec.successors[u].push_back(v); });
  }
  // Critical-path priorities, like the factorization's.
  rec.priority = bottom_levels(rec.n_tasks(), rec.successors);
  solve_dag_ = std::move(rec);
  solve_kind_ = std::move(kinds);
}

template <class T>
void UlvEngine<T>::solve_via_dag(MatrixView b) const {
  SolveScratch s;
  init_solve_scratch(s, b.cols());
  TaskGraph g;
  // Out-of-core: one step task per spill step advances the Pass (release
  // step s-1, pin step s); every solve task runs between its step's task
  // and the next, so the sweep's reads are always pinned and the
  // prefetcher always knows the cursor. A store failure is a task error
  // like any other: the graph drains and it rethrows here.
  const bool ooc = store_ != nullptr && n_spill_steps_ > 0;
  std::optional<SpillStore::Pass> pass;
  if (ooc) pass.emplace(*store_);
  for (TaskId t = 0; t < solve_dag_.n_tasks(); ++t) {
    const TaskMeta& m = solve_dag_.meta[t];
    const int level = m.level, id = m.owner;
    std::function<void()> fn;
    switch (solve_kind_[t]) {
      case SolveKind::kFwdXform:
        fn = [this, &s, b, level, id] { sbody_transform(s, b, level, id); };
        break;
      case SolveKind::kFwdSubst:
        fn = [this, &s, level, id] { sbody_subst(s, level, id); };
        break;
      case SolveKind::kFwdDown:
        fn = [this, &s, level, id] { sbody_down(s, level, id); };
        break;
      case SolveKind::kFwdMerge:
        fn = [this, &s, level, id] { sbody_merge(s, level, id); };
        break;
      case SolveKind::kTop:
        fn = [this, &s] { sbody_top(s); };
        break;
      case SolveKind::kBwdXs:
        fn = [this, &s, level, id] { sbody_xsplit(s, level, id); };
        break;
      case SolveKind::kBwdY:
        fn = [this, &s, level, id] { sbody_y(s, level, id); };
        break;
      case SolveKind::kBwdCombine:
        fn = [this, &s, b, level, id] { sbody_combine(s, b, level, id); };
        break;
      case SolveKind::kBwdSplit:  // gate: children read their parent sub-
      case SolveKind::kBarrier:   // blocks directly in bwd_xs
        fn = [] {};
        break;
    }
    g.add_task(std::move(fn), m.label, m.owner, m.level);
  }
  for (TaskId u = 0; u < solve_dag_.n_tasks(); ++u)
    for (const TaskId v : solve_dag_.successors[u]) g.add_dependency(u, v);
  for (std::size_t t = 0; t < solve_dag_.priority.size(); ++t)
    g.set_priority(static_cast<TaskId>(t), solve_dag_.priority[t]);
  if (ooc) {
    // Step tasks outrank every real task: once a step's work is done, the
    // window must move before stragglers of the same priority band run.
    const double step_priority =
        1.0 + *std::max_element(solve_dag_.priority.begin(),
                                solve_dag_.priority.end());
    std::vector<TaskId> step(n_spill_steps_);
    for (int st = 0; st < n_spill_steps_; ++st) {
      step[st] = g.add_task([&pass, st] { pass->advance(st); }, "spill_step",
                            st, -1);
      if (st > 0) g.add_dependency(step[st - 1], step[st]);
      g.set_priority(step[st], step_priority);
    }
    for (TaskId t = 0; t < solve_dag_.n_tasks(); ++t) {
      const int st = task_step_[t];
      if (st < 0) continue;
      g.add_dependency(step[st], t);
      if (st + 1 < n_spill_steps_) g.add_dependency(t, step[st + 1]);
    }
  }
  if (pool_ == ThreadPool::current()) {
    // A solve running ON a worker of its own pool (a pipelined solve_async
    // batch) cannot block on that pool: run the same graph on this thread,
    // in topological order — whole solves then pipeline across the pool's
    // workers instead of splitting one solve into tasks. Same bits; no
    // trace is published.
    g.run_inline();
    return;
  }
  const SpillStats ss0 = ooc ? store_->stats() : SpillStats{};
  ExecStats ex = g.execute(*pool_);
  if (ooc) {
    pass.reset();  // release the last step before reading the counters
    const SpillStats ss1 = store_->stats();
    ex.prefetch_hits = ss1.step_hits - ss0.step_hits;
    ex.prefetch_misses = ss1.step_misses - ss0.step_misses;
    ex.spill_fault_bytes = ss1.fault_bytes - ss0.fault_bytes;
  }
  // Surface what the execution measured instead of discarding it: the
  // H2_SOLVE_TRACE hook mirrors the factorization's fig13 trace (rewritten
  // per solve — point it at a per-run path when batching), and
  // last_solve_stats() keeps the most recent trace for programmatic access.
  const std::string trace_path =
      env::get_string("H2_SOLVE_TRACE", std::string());
  {
    std::lock_guard<std::mutex> lk(stats_mutex_);
    // The CSV write shares the lock so concurrent solves finishing at once
    // cannot interleave (truncate-while-writing) on one trace file.
    if (!trace_path.empty()) TaskGraph::write_trace_csv(ex, trace_path);
    last_solve_stats_ = std::move(ex);
    ++solve_stats_gen_;
  }
}

template <class T>
ExecStats UlvEngine<T>::last_solve_stats() const {
  std::lock_guard<std::mutex> lk(stats_mutex_);
  return last_solve_stats_;
}

template <class T>
std::uint64_t UlvEngine<T>::solve_stats_generation() const {
  std::lock_guard<std::mutex> lk(stats_mutex_);
  return solve_stats_gen_;
}

template <class T>
void UlvEngine<T>::solve(MatrixView b) const {
  assert(b.rows() == tree_->n_points());
  // Out-of-core only: registers this solve with the gate demote_to_disk()
  // drains, so a demotion never evicts under a sweep that predates it.
  const SolveGuard guard(*this);
  if (depth_ == 0) {
    // Degenerate one-cluster tree: the whole solve is this getrs, so the
    // width-stable scope wraps it here (no DAG, runs on the caller's thread).
    const detail::WidthStableScope ws(opt_.width_stable_solve);
    getrs(top_lu_, top_piv_, b);
    return;
  }
  solve_via_dag(b);
}

// The header's extern template declarations suppress implicit instantiation
// everywhere, so every member defined in THIS file is explicitly
// instantiated here for both engine precisions (the factorization-side
// members ride on the class-level instantiations in ulv_factorization.cpp).
#define H2_INSTANTIATE_ULV_SOLVE(T)                                            \
  template void UlvEngine<T>::init_solve_scratch(UlvEngine<T>::SolveScratch& s, int nrhs)    \
      const;                                                                   \
  template void UlvEngine<T>::build_solve_plan();                              \
  template void UlvEngine<T>::build_spill_plan();                              \
  template void UlvEngine<T>::solve_via_dag(MatrixViewT<T> b) const;          \
  template void UlvEngine<T>::sbody_transform(UlvEngine<T>::SolveScratch& s,                 \
                                              ConstMatrixViewT<T> b,           \
                                              int level, int c) const;         \
  template void UlvEngine<T>::sbody_subst(UlvEngine<T>::SolveScratch& s, int level, int k)   \
      const;                                                                   \
  template void UlvEngine<T>::sbody_down(UlvEngine<T>::SolveScratch& s, int level, int i)    \
      const;                                                                   \
  template void UlvEngine<T>::sbody_merge(UlvEngine<T>::SolveScratch& s, int level, int p)   \
      const;                                                                   \
  template void UlvEngine<T>::sbody_top(UlvEngine<T>::SolveScratch& s) const;                \
  template void UlvEngine<T>::sbody_xsplit(UlvEngine<T>::SolveScratch& s, int level, int c)  \
      const;                                                                   \
  template void UlvEngine<T>::sbody_y(UlvEngine<T>::SolveScratch& s, int level, int k)       \
      const;                                                                   \
  template void UlvEngine<T>::sbody_combine(UlvEngine<T>::SolveScratch& s, MatrixViewT<T> b, \
                                            int level, int c) const;           \
  template ExecStats UlvEngine<T>::last_solve_stats() const;                   \
  template std::uint64_t UlvEngine<T>::solve_stats_generation() const;         \
  template void UlvEngine<T>::solve(MatrixViewT<T> b) const;

H2_INSTANTIATE_ULV_SOLVE(double)
H2_INSTANTIATE_ULV_SOLVE(float)
#undef H2_INSTANTIATE_ULV_SOLVE

}  // namespace h2
