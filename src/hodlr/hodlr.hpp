#pragma once

#include <memory>
#include <vector>

#include "geometry/cluster_tree.hpp"
#include "hmatrix/low_rank.hpp"
#include "kernels/kernel.hpp"
#include "linalg/linalg.hpp"

namespace h2 {

/// HODLR direct solver (Table I: independent bases, weak admissibility,
/// O(N log^2 N) factorization) — Ambikasaran & Darve's recursive
/// Sherman-Morrison-Woodbury scheme.
///
/// At every tree node the two off-diagonal sibling blocks are independent
/// low-rank factorizations (no shared or nested bases). Factorization
/// proceeds bottom-up: leaves take a dense LU; each internal node writes its
/// off-diagonal coupling as a low-rank perturbation of the block-diagonal
/// solve below it,
///     A = D (I + D^-1 W Z^T),
/// and LU-factorizes the small 2r x 2r capacitance matrix
/// K = I + Z^T D^-1 W. Solving descends the same telescope; log|det| is the
/// sum of the leaf LU and capacitance determinants.
///
/// Implements the structure family the paper contrasts against in Table I —
/// simpler than HSS/H^2 (no shared bases) but with the extra log factors and
/// 3-D rank growth of weak admissibility.
class HodlrMatrix {
 public:
  struct Options {
    double tol = 1e-8;  ///< ACA tolerance for the off-diagonal blocks
    int max_rank = -1;
  };

  /// Assemble and factorize in one pass (the structure exists only in
  /// factored form).
  HodlrMatrix(const ClusterTree& tree, const Kernel& kernel,
              const Options& opt);

  /// In-place solve A x = b, b is n x nrhs in tree ordering.
  void solve(MatrixView b) const;

  /// log|det A| from the leaf LUs and capacitance LUs.
  [[nodiscard]] double logabsdet() const;

  /// Largest off-diagonal block rank encountered (Table I rank statistics).
  [[nodiscard]] int max_rank_used() const { return max_rank_used_; }

 private:
  struct Node {
    // Leaf: dense LU of the diagonal block.
    Matrix lu;
    std::vector<int> piv;
    // Internal: low-rank coupling [0 U1 V1^T; U2 V2^T 0] in Woodbury form.
    Matrix w;        ///< n_node x 2r: [U1 0; 0 U2], columns D^-1-applied into dw
    Matrix dw;       ///< D^-1 W (n_node x 2r)
    Matrix z;        ///< n_node x 2r: [0 V2; V1 0] (so coupling = W Z^T)
    Matrix cap_lu;   ///< 2r x 2r capacitance LU
    std::vector<int> cap_piv;
    int rank = 0;
  };

  /// Solve with the sub-factorization rooted at (level, lid) on rows
  /// [node.begin, node.end) of b.
  void solve_node(int level, int lid, MatrixView b) const;

  const ClusterTree* tree_;
  std::vector<Node> nodes_;  ///< heap order, as in ClusterTree
  int depth_ = 0;
  int max_rank_used_ = 0;
};

}  // namespace h2
