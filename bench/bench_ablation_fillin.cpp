/// Ablation of the paper's two key design choices (Sec. III):
///  1. fill-in-augmented shared bases (Eqs. 27-28) vs plain low-rank bases —
///     the augmentation is what makes the dropped non-skeleton updates
///     negligible;
///  2. dependency-free parallel elimination vs the sequential Sec. II.D
///     right-looking flow with trailing updates — same math, no parallelism.
#include "dist/ulv_dist_model.hpp"

#include "bench_common.hpp"

int main() {
  using namespace h2;
  using namespace h2::bench;

  const int n = static_cast<int>(2048 * scale());
  Rng rng(1);
  const PointCloud pts = uniform_cube(n, rng);
  const LaplaceKernel kernel(1e-4);
  const ClusterTree tree = ClusterTree::build(pts, 128, rng);

  H2BuildOptions ho;
  ho.admissibility = {Admissibility::Strong, 1.0};
  ho.tol = 1e-8;
  ho.max_rank = 80;
  const H2Matrix a(tree, kernel, ho);

  struct Variant {
    const char* name;
    bool fillin;
    UlvMode mode;
  };
  const Variant variants[] = {
      {"parallel + fill-in bases (paper)", true, UlvMode::Parallel},
      {"parallel, plain bases", false, UlvMode::Parallel},
      {"sequential (Sec. II.D) + fill-in bases", true, UlvMode::Sequential},
      {"sequential, plain bases", false, UlvMode::Sequential},
  };

  Table t({"variant", "factor (s)", "residual", "dropped mass", "max rank",
           "64-core model (s)"});
  for (const auto& v : variants) {
    UlvOptions uo;
    uo.tol = 1e-6;
    uo.max_rank = 80;
    uo.fillin_augmentation = v.fillin;
    uo.mode = v.mode;
    uo.measure_dropped = true;
    uo.record_tasks = true;
    // Durations feed the 64-core model: record contention-free on 1 worker
    // so Parallel and Sequential variants are measured alike.
    uo.n_workers = 1;
    Timer tf;
    const UlvFactorization f(a, uo);
    const double ft = tf.seconds();

    Matrix b = Matrix::random(n, 1, rng);
    Matrix x = b;
    f.solve(x);
    Matrix ax(n, 1);
    kernel_matvec(kernel, tree.points(), x, ax);

    // Parallelism model: in Sequential mode the per-level elimination is one
    // serial chain — recorded as such in the DAG the model replays, whose
    // summed eliminate time is therefore a floor of the modeled parallel
    // time; for the Parallel mode every phase scales.
    UlvDistModel model{&f.stats(), &a.structure()};
    double t64 = model.shared_memory_time(64);
    if (v.mode == UlvMode::Sequential) {
      // The eliminate tasks of each level form a serial chain.
      double elim = 0.0;
      for (const auto& task : f.stats().tasks)
        if (std::string(task.kind) == "eliminate") elim += task.seconds;
      t64 = std::max(t64, elim);
    }
    t.add_row({v.name, Table::fmt(ft, 3), Table::fmt_sci(rel_error_fro(ax, b), 1),
               Table::fmt_sci(std::sqrt(f.stats().dropped_mass), 1),
               std::to_string(f.stats().max_rank), Table::fmt(t64, 4)});
  }
  char title[128];
  std::snprintf(title, sizeof(title),
                "Ablation: fill-in bases and dependency-free elimination "
                "(N=%d, tol=1e-6)", n);
  emit(t, title, "ablation_fillin");
  std::printf(
      "paper shape check: plain bases leave O(1) dropped mass and orders of\n"
      "magnitude worse residual; the sequential mode matches the parallel\n"
      "mode's accuracy but cannot use many cores.\n");
  return 0;
}
