#include "dist/ulv_dist_model.hpp"

#include <algorithm>
#include <cmath>

namespace h2 {

ScheduleInput UlvDistModel::replay_input() const {
  ScheduleInput in;
  if (!has_recorded_dag()) return in;

  // Replay the measured durations through the TRUE recorded edge structure
  // (fill→basis→project→eliminate per block row, schur→merge toward the
  // parent, merge→fill across levels), so simulated schedules overlap
  // phases and levels exactly where the real execution may.
  const int n = stats->dag.n_tasks();
  in.durations.assign(n, 0.0);
  for (const TaskRecord& r : stats->exec.records)
    if (r.id >= 0 && r.id < n) in.durations[r.id] = r.duration();
  in.successors = stats->dag.successors;
  in.out_bytes = stats->dag.out_bytes;  // empty when none were recorded
  // The release tasks ("release"/"release_level") and the bulk-synchronous
  // shape's "barrier" tasks are pure control flow: their incoming edges
  // only say "the consumers retired" or "the phase is done" — no data
  // crosses ranks on them (the real outputs were charged on the consumer
  // edges already). Mark them so list_schedule skips the alpha-beta charge
  // into them.
  in.control_sink.assign(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    const std::string& label = stats->dag.meta[k].label;
    if (label.rfind("release", 0) == 0 || label == "barrier")
      in.control_sink[k] = 1;
  }
  return in;
}

bool UlvDistModel::has_recorded_dag() const {
  return stats != nullptr && !stats->dag.empty() &&
         stats->exec.records.size() == stats->dag.meta.size();
}

ScheduleInput UlvDistModel::distributed_input(int p) const {
  ScheduleInput in = replay_input();
  if (!has_recorded_dag() || structure == nullptr) return in;
  const RankMap map(structure->depth(), std::max(1, p));
  in.owner = map.task_ranks(stats->dag);
  return in;
}

double UlvDistModel::shared_memory_time(int p) const {
  CommModel shared;  // one address space: no communication
  shared.alpha = 0.0;
  shared.beta = 0.0;
  return list_schedule(replay_input(), std::max(1, p), shared).makespan;
}

double UlvDistModel::level_bytes(int level) const {
  if (stats == nullptr || structure == nullptr) return 0.0;
  if (level < 1 || level >= static_cast<int>(stats->ranks.size()) ||
      level > structure->depth())
    return 0.0;
  const std::vector<int>& ranks = stats->ranks[level];
  double bytes = 0.0;
  for (int i = 0; i < static_cast<int>(ranks.size()); ++i) {
    const double r = static_cast<double>(ranks[i]);
    const double couplings =
        1.0 +  // the diagonal S.S block
        static_cast<double>(structure->dense_cols(level, i).size()) +
        static_cast<double>(structure->admissible_cols(level, i).size());
    bytes += 8.0 * r * r * couplings;
  }
  return bytes;
}

double UlvDistModel::comm_seconds(int p, const CommModel& comm) const {
  if (p <= 1 || stats == nullptr || structure == nullptr) return 0.0;
  double total = 0.0;
  for (int level = 1; level < static_cast<int>(stats->ranks.size()); ++level) {
    const int nb = static_cast<int>(stats->ranks[level].size());
    // Split communicators: once p exceeds the cluster count the upper
    // levels run redundantly and the gather group stops growing.
    const int q = std::min(p, std::max(1, nb));
    if (q <= 1) continue;
    const double rounds = std::ceil(std::log2(static_cast<double>(q)));
    const double payload =
        level_bytes(level) * (static_cast<double>(q - 1) / q);
    total += rounds * comm.alpha + comm.beta * payload;
  }
  return total;
}

double UlvDistModel::time(int p, const CommModel& comm,
                          CommCharging charging) const {
  if (charging == CommCharging::EdgeCharged && has_recorded_dag() &&
      structure != nullptr) {
    // The rank map pins every task to its subtree owner and list_schedule
    // charges comm.cost(producer payload) on every edge whose endpoints
    // land on different ranks — at p = 1 there are none, so this equals
    // shared_memory_time(1) exactly.
    return list_schedule(distributed_input(p), std::max(1, p), comm).makespan;
  }
  return shared_memory_time(p) + comm_seconds(p, comm);
}

}  // namespace h2
