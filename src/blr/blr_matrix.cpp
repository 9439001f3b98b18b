#include "blr/blr_matrix.hpp"

#include <cassert>
#include <cmath>

#include "kernels/assembly.hpp"

namespace h2 {

BlrMatrix::BlrMatrix(const ClusterTree& tree, const Kernel& kernel,
                     const BlrOptions& opt)
    : tree_(&tree), opt_(opt), nb_(tree.n_clusters(tree.depth())) {
  const int depth = tree.depth();
  for (int i = 0; i < nb_; ++i) {
    const auto rows = tree.cluster_points(depth, i);
    for (int j = 0; j <= i; ++j) {
      Tile t;
      if (i == j) {
        t.dense = true;
        t.d = kernel_block(kernel, rows, rows);
      } else {
        const auto cols = tree.cluster_points(depth, j);
        const int cap = opt.max_rank > 0
                            ? opt.max_rank
                            : static_cast<int>(std::min(rows.size(), cols.size()) / 2);
        LowRank lr = aca_compress(kernel, rows, cols, opt.tol, cap);
        if (lr.rank() >= cap) {
          // Near-field tile: adaptive rank saturated, keep it dense.
          t.dense = true;
          t.d = kernel_block(kernel, rows, cols);
        } else {
          t.dense = false;
          t.lr = std::move(lr);
        }
      }
      tiles_.emplace(Key{i, j}, std::move(t));
    }
  }
}

void BlrMatrix::task_potrf(int k) { potrf(at(k, k).d); }

void BlrMatrix::task_trsm(int i, int k) {
  // T(i,k) <- T(i,k) L(k,k)^-T.
  const Matrix& l = at(k, k).d;
  Tile& t = at(i, k);
  if (t.dense) {
    trsm(Side::Right, UpLo::Lower, Trans::Yes, Diag::NonUnit, 1.0, l, t.d);
  } else if (t.lr.rank() > 0) {
    // (U V^T) L^-T = U (L^-1 V)^T.
    trsm(Side::Left, UpLo::Lower, Trans::No, Diag::NonUnit, 1.0, l, t.lr.v);
  }
}

void BlrMatrix::task_update(int i, int j, int k) {
  // T(i,j) -= T(i,k) T(j,k)^T, all low-rank-aware, adaptive recompression.
  const Tile& a = at(i, k);
  const Tile& b = at(j, k);
  Tile& c = at(i, j);
  const bool a_lr = !a.dense, b_lr = !b.dense;
  if (a_lr && a.lr.rank() == 0) return;
  if (b_lr && b.lr.rank() == 0) return;

  // Product P = T(i,k) T(j,k)^T as either dense or LowRank factors.
  bool p_dense = false;
  Matrix pd;
  LowRank p;
  if (a_lr && b_lr) {
    const Matrix m = matmul(a.lr.v, b.lr.v, Trans::Yes, Trans::No);  // ra x rb
    if (a.lr.rank() <= b.lr.rank()) {
      p.u = a.lr.u;
      p.v = matmul(b.lr.u, m, Trans::No, Trans::Yes);
    } else {
      p.u = matmul(a.lr.u, m);
      p.v = b.lr.u;
    }
  } else if (a_lr) {
    p.u = a.lr.u;
    p.v = matmul(b.d, a.lr.v);  // (U V^T) D^T = U (D V)^T
  } else if (b_lr) {
    p.u = matmul(a.d, b.lr.v);
    p.v = b.lr.u;
  } else {
    p_dense = true;
    pd = matmul(a.d, b.d, Trans::No, Trans::Yes);
  }

  if (c.dense) {
    if (p_dense) {
      axpy(-1.0, pd, c.d);
    } else {
      gemm(-1.0, p.u, Trans::No, p.v, Trans::Yes, 1.0, c.d);
    }
    return;
  }
  // Low-rank target: concatenate and recompress adaptively.
  if (p_dense) p = compress_dense(pd, opt_.tol);
  if (p.rank() == 0) return;
  scale(-1.0, p.u);
  LowRank sum;
  sum.u = hconcat({c.lr.u, p.u});
  sum.v = hconcat({c.lr.v, p.v});
  c.lr = recompress(sum, opt_.tol, opt_.max_rank);
}

ExecStats BlrMatrix::factorize() {
  assert(!factorized_);
  factorized_ = true;

  // Build the classic tiled-Cholesky DAG with last-writer dependencies —
  // exactly the trailing-sub-matrix dependency structure the paper contrasts
  // against (LORAPO/PaRSEC).
  std::map<Key, TaskId> last_writer;
  auto add = [&](std::function<void()> fn, const char* label, int row,
                 std::initializer_list<Key> reads, Key write) {
    const TaskId id = graph_.add_task(std::move(fn), label, /*owner=*/row);
    task_owner_col_.push_back(write.second);
    for (const Key& r : reads) {
      auto it = last_writer.find(r);
      if (it != last_writer.end()) graph_.add_dependency(it->second, id);
    }
    auto it = last_writer.find(write);
    if (it != last_writer.end()) graph_.add_dependency(it->second, id);
    last_writer[write] = id;
    return id;
  };

  for (int k = 0; k < nb_; ++k) {
    add([this, k] { task_potrf(k); }, "potrf", k, {}, {k, k});
    for (int i = k + 1; i < nb_; ++i)
      add([this, i, k] { task_trsm(i, k); }, "trsm", i, {{k, k}}, {i, k});
    for (int i = k + 1; i < nb_; ++i)
      for (int j = k + 1; j <= i; ++j)
        add([this, i, j, k] { task_update(i, j, k); }, "gemm", i,
            {{i, k}, {j, k}}, {i, j});
  }
  return graph_.execute(opt_.n_threads);
}

void BlrMatrix::solve(MatrixView b) const {
  assert(factorized_);
  const int depth = tree_->depth();
  const int nrhs = b.cols();
  auto chunk = [&](int i) {
    const ClusterNode& nd = tree_->node(depth, i);
    return b.block(nd.begin, 0, nd.size(), nrhs);
  };
  auto apply_offdiag = [&](int i, int j, ConstMatrixView x, MatrixView y,
                           bool transposed) {
    // y -= op(T(i,j)) x with i > j (lower tile).
    const Tile& t = at(i, j);
    if (t.dense) {
      gemm(-1.0, t.d, transposed ? Trans::Yes : Trans::No, x, Trans::No, 1.0, y);
    } else if (t.lr.rank() > 0) {
      const Matrix& first = transposed ? t.lr.v : t.lr.u;
      const Matrix& second = transposed ? t.lr.u : t.lr.v;
      Matrix tmp = matmul(second, x, Trans::Yes, Trans::No);
      gemm(-1.0, first, Trans::No, tmp, Trans::No, 1.0, y);
    }
  };

  // Forward: L z = b.
  for (int i = 0; i < nb_; ++i) {
    MatrixView bi = chunk(i);
    for (int j = 0; j < i; ++j) apply_offdiag(i, j, chunk(j), bi, false);
    trsm(Side::Left, UpLo::Lower, Trans::No, Diag::NonUnit, 1.0, at(i, i).d, bi);
  }
  // Backward: L^T x = z.
  for (int i = nb_ - 1; i >= 0; --i) {
    MatrixView bi = chunk(i);
    for (int j = i + 1; j < nb_; ++j) apply_offdiag(j, i, chunk(j), bi, true);
    trsm(Side::Left, UpLo::Lower, Trans::Yes, Diag::NonUnit, 1.0, at(i, i).d, bi);
  }
}

double BlrMatrix::logabsdet() const {
  assert(factorized_);
  double acc = 0.0;
  for (int k = 0; k < nb_; ++k) {
    const Matrix& l = at(k, k).d;
    for (int d = 0; d < l.rows(); ++d) acc += std::log(std::fabs(l(d, d)));
  }
  return 2.0 * acc;
}

int BlrMatrix::max_rank_used() const {
  int r = 0;
  for (const auto& [key, t] : tiles_)
    if (!t.dense) r = std::max(r, t.lr.rank());
  return r;
}

std::uint64_t BlrMatrix::memory_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& [key, t] : tiles_) {
    if (t.dense)
      bytes += 8ull * t.d.rows() * t.d.cols();
    else
      bytes += 8ull * (t.lr.rows() + t.lr.cols()) * t.lr.rank();
  }
  return bytes;
}

}  // namespace h2
