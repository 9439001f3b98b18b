#pragma once

#include <map>
#include <utility>
#include <vector>

#include "geometry/cluster_tree.hpp"
#include "hmatrix/low_rank.hpp"
#include "kernels/kernel.hpp"
#include "linalg/linalg.hpp"
#include "runtime/task_graph.hpp"

namespace h2 {

/// Options for the BLR baseline (our LORAPO substitute: adaptive-rank block
/// low-rank Cholesky with trailing-sub-matrix dependencies, executed through
/// a task runtime).
struct BlrOptions {
  double tol = 1e-8;  ///< ACA / recompression relative tolerance
  /// Tiles whose adaptive rank exceeds tile_size/2 are stored dense (the
  /// near-field tiles of a 3-D problem).
  int max_rank = -1;
  int n_threads = 1;  ///< workers for the task-graph execution
};

/// Flat-tiled block low-rank matrix in Cholesky form (LORAPO's algorithm
/// class: O(N^2) factorization flops, trailing updates, PaRSEC-style task
/// graph — here our TaskGraph). Tiles are the leaf clusters of the same
/// ClusterTree the H^2 solver uses, so comparisons share one geometry.
///
/// The kernel matrix must be SPD (all built-in kernels are completely
/// monotone radial functions, SPD on distinct points).
class BlrMatrix {
 public:
  /// Assemble: diagonal tiles dense, off-diagonal tiles ACA-compressed with
  /// adaptive rank (dense fallback when the rank is not small).
  BlrMatrix(const ClusterTree& tree, const Kernel& kernel,
            const BlrOptions& opt);

  /// Tiled right-looking Cholesky through the dependency-counted task graph.
  /// Returns the execution stats (trace for Fig. 13; DAG replay inputs for
  /// the scaling simulators).
  ExecStats factorize();

  /// Expose the task DAG structure of the last factorize() for the
  /// scheduling simulator (durations are in the ExecStats records). The
  /// owner tile ROW of each task is the graph's TaskMeta::owner.
  [[nodiscard]] const TaskGraph& graph() const { return graph_; }
  /// Owner tile column of each task (2-D block-cyclic distributions; the
  /// row lives in the graph metadata).
  [[nodiscard]] const std::vector<int>& task_owner_col() const {
    return task_owner_col_;
  }

  /// In-place solve A x = b (b in tree ordering, n x nrhs). Requires
  /// factorize() to have completed.
  void solve(MatrixView b) const;

  /// log(det A) = 2 sum log diag(L).
  [[nodiscard]] double logabsdet() const;

  [[nodiscard]] int n_tiles() const { return nb_; }
  [[nodiscard]] int max_rank_used() const;
  [[nodiscard]] std::uint64_t memory_bytes() const;

 private:
  struct Tile {
    bool dense = true;
    Matrix d;
    LowRank lr;
  };
  using Key = std::pair<int, int>;

  Tile& at(int i, int j) { return tiles_.at({i, j}); }
  [[nodiscard]] const Tile& at(int i, int j) const { return tiles_.at({i, j}); }

  void task_potrf(int k);
  void task_trsm(int i, int k);
  void task_update(int i, int j, int k);  // T(i,j) -= T(i,k) T(j,k)^T

  const ClusterTree* tree_;
  BlrOptions opt_;
  int nb_ = 0;
  std::map<Key, Tile> tiles_;  ///< lower triangle (i >= j)
  TaskGraph graph_;
  std::vector<int> task_owner_col_;
  bool factorized_ = false;
};

}  // namespace h2
