/// Fig. 13: execution traces through the task runtime. The paper shows
/// PaRSEC's red (overhead) vs green (useful work) tasks and blames poor
/// strong scaling on task grain vs runtime overhead. Here we execute BOTH
/// real DAGs — the tiled-Cholesky BLR baseline and the dependency-free
/// H2-ULV factorization — on concurrent workers, dump each trace (CSV with
/// task/label/owner/level/worker/span columns, one lane per worker), show
/// that the ULV trace overlaps tasks from ADJACENT TREE LEVELS (the
/// merge→fill edges at work: no level barrier exists), and quantify
/// overhead-vs-useful both measured and modeled.
#include <algorithm>
#include <cinttypes>

#include "dist/schedule_sim.hpp"

#include "bench_common.hpp"

int main() {
  using namespace h2;
  using namespace h2::bench;

  const int n = static_cast<int>(2048 * scale());
  const int threads = static_cast<int>(env::get_int("H2_TRACE_THREADS", 4));
  Rng rng(1);
  const PointCloud pts = uniform_cube(n, rng);
  const LaplaceKernel kernel(1e-4);
  SolverConfig cfg;
  cfg.tol = 1e-6;

  // ---- The ULV factorization through its own task DAG, concurrently.
  const UlvRun ulv = run_ulv(pts, kernel, cfg, /*record_tasks=*/true, threads);
  const ExecStats& uex = ulv.stats.exec;
  TaskGraph::write_trace_csv(uex, "fig13_ulv_trace.csv");

  Table tu({"task kind", "count", "total (s)", "mean (us)", "max (us)"});
  for (const std::string label :
       {"assemble", "fill", "basis", "project", "eliminate", "col_solve",
        "schur", "merge"}) {
    int count = 0;
    double total = 0.0, longest = 0.0;
    for (const auto& r : uex.records) {
      if (r.label != label) continue;
      ++count;
      total += r.duration();
      longest = std::max(longest, r.duration());
    }
    tu.add_row({label, std::to_string(count), Table::fmt(total, 4),
                Table::fmt(count ? 1e6 * total / count : 0.0, 1),
                Table::fmt(1e6 * longest, 1)});
  }
  char title[160];
  std::snprintf(title, sizeof(title),
                "Fig. 13 (ULV): dependency-driven task trace, N=%d, %d workers",
                n, threads);
  emit(tu, title, "fig13_ulv_task_stats");

  // Cross-level overlap: with no barrier between levels, spans of level L
  // and level L-1 tasks interleave on the worker lanes — the structural
  // difference to a bulk-synchronous schedule. Only pipeline tasks count:
  // ry and assemble are dependency-free roots whose overlap any executor
  // would show, so they are excluded from the claim.
  auto pipeline_task = [](const TaskRecord& r) {
    return r.level >= 0 && r.label != "ry" && r.label != "assemble";
  };
  // Bucket the pipeline tasks by level, then count overlapping (span, span)
  // pairs between ADJACENT buckets with two sorted arrays and binary
  // searches — near-linear, where the naive all-pairs scan grows
  // quadratically with H2_BENCH_SCALE. A span [s_a, e_a) overlaps
  // [s_b, e_b) iff s_b < e_a and e_b > s_a, so against a sorted bucket the
  // count is #(starts < e_a) - #(ends <= s_a).
  int max_level = -1;
  for (const auto& r : uex.records)
    if (pipeline_task(r)) max_level = std::max(max_level, r.level);
  std::vector<std::vector<int>> by_level(max_level + 1);
  for (std::size_t i = 0; i < uex.records.size(); ++i)
    if (pipeline_task(uex.records[i]))
      by_level[uex.records[i].level].push_back(static_cast<int>(i));
  long overlap_pairs = 0;
  int example_a = -1, example_b = -1;
  for (int lvl = 0; lvl + 1 <= max_level; ++lvl) {
    const std::vector<int>& upper = by_level[lvl + 1];
    std::vector<double> starts, ends;
    for (const int b : upper) {
      starts.push_back(uex.records[b].t_start);
      ends.push_back(uex.records[b].t_end);
    }
    std::sort(starts.begin(), starts.end());
    std::sort(ends.begin(), ends.end());
    for (const int a : by_level[lvl]) {
      const auto& ra = uex.records[a];
      const long n_started =
          std::lower_bound(starts.begin(), starts.end(), ra.t_end) -
          starts.begin();
      const long n_finished =
          std::upper_bound(ends.begin(), ends.end(), ra.t_start) - ends.begin();
      const long c = n_started - n_finished;
      overlap_pairs += c;
      if (c > 0 && example_a < 0) {
        example_a = a;
        for (const int b : upper) {
          const auto& rb = uex.records[b];
          if (ra.t_start < rb.t_end && rb.t_start < ra.t_end) {
            example_b = b;
            break;
          }
        }
      }
    }
  }
  std::printf("ULV tasks executed   : %zu on %d workers (wall %.4f s, useful "
              "%.4f s, overhead+idle %.1f %%)\n",
              uex.records.size(), uex.n_workers, uex.wall_seconds,
              uex.useful_seconds, 100.0 * uex.overhead_fraction());
  std::printf("per-worker executed/stolen:");
  for (std::size_t wi = 0; wi < uex.worker_counters.size(); ++wi)
    std::printf(" w%zu=%" PRIu64 "/%" PRIu64, wi,
                uex.worker_counters[wi].executed,
                uex.worker_counters[wi].stolen);
  std::printf("\n");
  std::printf("adjacent-level overlapping task pairs: %ld  (bulk-synchronous "
              "shape would give 0)\n", overlap_pairs);
  if (overlap_pairs > 0) {
    const auto& ra = uex.records[example_a];
    const auto& rb = uex.records[example_b];
    std::printf("  e.g. %s(owner %d, level %d) ran concurrently with "
                "%s(owner %d, level %d)\n",
                ra.label.c_str(), ra.owner, ra.level, rb.label.c_str(),
                rb.owner, rb.level);
  }

  // ---- The BLR baseline through the same runtime.
  const BlrRun blr = run_blr(pts, kernel, cfg, threads);
  const ExecStats& ex = blr.exec;
  TaskGraph::write_trace_csv(ex, "fig13_trace.csv");

  // Per-label task statistics (grain distribution).
  Table t({"task kind", "count", "total (s)", "mean (us)", "max (us)"});
  for (const std::string label : {"potrf", "trsm", "gemm"}) {
    int count = 0;
    double total = 0.0, longest = 0.0;
    for (const auto& r : ex.records) {
      if (r.label != label) continue;
      ++count;
      total += r.duration();
      longest = std::max(longest, r.duration());
    }
    t.add_row({label, std::to_string(count), Table::fmt(total, 4),
               Table::fmt(count ? 1e6 * total / count : 0.0, 1),
               Table::fmt(1e6 * longest, 1)});
  }
  std::snprintf(title, sizeof(title),
                "Fig. 13: BLR task trace, N=%d, %d workers", n, threads);
  emit(t, title, "fig13_task_stats");

  std::printf("tasks executed       : %zu\n", ex.records.size());
  std::printf("wall time            : %.4f s on %d workers\n", ex.wall_seconds,
              ex.n_workers);
  std::printf("useful task time     : %.4f s\n", ex.useful_seconds);
  std::printf("overhead+idle        : %.1f %% of worker-time (the paper's "
              "red-vs-green ratio)\n", 100.0 * ex.overhead_fraction());

  // Model the same DAG with explicit per-task runtime overhead to show the
  // grain sensitivity PaRSEC exhibits in the paper.
  ScheduleInput in;
  in.durations.resize(ex.records.size());
  for (const auto& r : ex.records) in.durations[r.id] = r.duration();
  in.successors = blr.successors;
  // Two regimes: our scalar-kernel task durations, and the same durations
  // divided by 100 to emulate the paper's MKL-speed tiles, where the task
  // grain approaches the runtime overhead (the red tasks of Fig. 13).
  Table t2({"task grain", "per-task overhead", "64-core makespan (s)",
            "efficiency"});
  for (const double speedup : {1.0, 100.0}) {
    ScheduleInput scaled = in;
    for (double& d : scaled.durations) d /= speedup;
    for (const double ov : {0.0, 20e-6, 100e-6}) {
      scaled.per_task_overhead = ov;
      const auto res = list_schedule(scaled, 64, CommModel{});
      t2.add_row({speedup == 1.0 ? "measured (scalar)" : "measured / 100 (MKL-like)",
                  Table::fmt(1e6 * ov, 0) + " us", Table::fmt(res.makespan, 5),
                  Table::fmt(res.efficiency(64), 3)});
    }
  }
  emit(t2, "Fig. 13 (model): runtime overhead vs 64-core efficiency",
       "fig13_overhead_model");
  std::printf("(per-task traces written to fig13_ulv_trace.csv and "
              "fig13_trace.csv)\n");
  return 0;
}
