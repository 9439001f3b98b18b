#include "hodlr/hodlr.hpp"

#include <cassert>
#include <cmath>

#include "kernels/assembly.hpp"

namespace h2 {
namespace {

int heap_index(int level, int lid) { return (1 << level) - 1 + lid; }

}  // namespace

HodlrMatrix::HodlrMatrix(const ClusterTree& tree, const Kernel& kernel,
                         const Options& opt)
    : tree_(&tree), depth_(tree.depth()) {
  nodes_.resize((2 << depth_) - 1);

  // Bottom-up: leaf dense LUs first, then each internal node's Woodbury data
  // (the D^-1 W solves need the children factored).
  for (int lid = 0; lid < tree.n_clusters(depth_); ++lid) {
    Node& nd = nodes_[heap_index(depth_, lid)];
    const auto pts = tree.cluster_points(depth_, lid);
    nd.lu = kernel_block(kernel, pts, pts);
    getrf(nd.lu, nd.piv);
  }

  for (int level = depth_ - 1; level >= 0; --level) {
    for (int lid = 0; lid < tree.n_clusters(level); ++lid) {
      Node& nd = nodes_[heap_index(level, lid)];
      const auto p0 = tree.cluster_points(level + 1, 2 * lid);
      const auto p1 = tree.cluster_points(level + 1, 2 * lid + 1);
      const int n0 = static_cast<int>(p0.size());
      const int n1 = static_cast<int>(p1.size());
      const int n = n0 + n1;

      // Independent compression of the two sibling blocks.
      LowRank a01 = aca_compress(kernel, p0, p1, opt.tol, opt.max_rank);
      LowRank a10 = aca_compress(kernel, p1, p0, opt.tol, opt.max_rank);
      const int r0 = a01.rank(), r1 = a10.rank();
      nd.rank = std::max(r0, r1);
      max_rank_used_ = std::max(max_rank_used_, nd.rank);

      // Coupling = W Z^T with W = [U01 0; 0 U10], Z = [0 V10; V01 0].
      const int r = r0 + r1;
      nd.w = Matrix(n, r);
      nd.z = Matrix(n, r);
      if (r0 > 0) {
        copy_into(a01.u, nd.w.block(0, 0, n0, r0));
        copy_into(a01.v, nd.z.block(n0, 0, n1, r0));
      }
      if (r1 > 0) {
        copy_into(a10.u, nd.w.block(n0, r0, n1, r1));
        copy_into(a10.v, nd.z.block(0, r0, n0, r1));
      }

      // dw = D^-1 W through the already-factored children.
      nd.dw = nd.w;
      if (r > 0) {
        const int base = tree.node(level, lid).begin;
        (void)base;
        solve_node(level + 1, 2 * lid, nd.dw.block(0, 0, n0, r));
        solve_node(level + 1, 2 * lid + 1, nd.dw.block(n0, 0, n1, r));
        // Capacitance K = I + Z^T D^-1 W.
        nd.cap_lu = matmul(nd.z, nd.dw, Trans::Yes, Trans::No);
        add_identity(nd.cap_lu, 1.0);
        getrf(nd.cap_lu, nd.cap_piv);
      }
    }
  }
}

void HodlrMatrix::solve_node(int level, int lid, MatrixView b) const {
  const Node& nd = nodes_[heap_index(level, lid)];
  if (level == depth_) {
    getrs(nd.lu, nd.piv, b);
    return;
  }
  const int n0 = tree_->node(level + 1, 2 * lid).size();
  const int n1 = tree_->node(level + 1, 2 * lid + 1).size();
  const int nrhs = b.cols();
  // y = D^-1 b.
  solve_node(level + 1, 2 * lid, b.block(0, 0, n0, nrhs));
  solve_node(level + 1, 2 * lid + 1, b.block(n0, 0, n1, nrhs));
  if (nd.rank == 0) return;
  // x = y - D^-1 W K^-1 Z^T y  (Sherman-Morrison-Woodbury).
  Matrix t = matmul(nd.z, b, Trans::Yes, Trans::No);  // 2r x nrhs
  getrs(nd.cap_lu, nd.cap_piv, t);
  gemm(-1.0, nd.dw, Trans::No, t, Trans::No, 1.0, b);
}

void HodlrMatrix::solve(MatrixView b) const {
  assert(b.rows() == tree_->n_points());
  solve_node(0, 0, b);
}

double HodlrMatrix::logabsdet() const {
  // det A = prod_leaves det(LU) * prod_internal det(K).
  double acc = 0.0;
  for (int lid = 0; lid < tree_->n_clusters(depth_); ++lid) {
    const Node& nd = nodes_[heap_index(depth_, lid)];
    for (int i = 0; i < nd.lu.rows(); ++i)
      acc += std::log(std::fabs(nd.lu(i, i)));
  }
  for (int level = 0; level < depth_; ++level) {
    for (int lid = 0; lid < tree_->n_clusters(level); ++lid) {
      const Node& nd = nodes_[heap_index(level, lid)];
      for (int i = 0; i < nd.cap_lu.rows(); ++i)
        acc += std::log(std::fabs(nd.cap_lu(i, i)));
    }
  }
  return acc;
}

}  // namespace h2
