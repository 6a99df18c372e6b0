#include "mapreduce/cluster_model.h"

#include <algorithm>
#include <cassert>
#include <queue>

namespace fj::mr {

double Makespan(const std::vector<double>& task_seconds, size_t slots) {
  assert(slots >= 1);
  if (task_seconds.empty()) return 0;
  if (slots == 1) {
    double sum = 0;
    for (double t : task_seconds) sum += t;
    return sum;
  }
  std::vector<double> sorted = task_seconds;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  // Min-heap of slot finish times.
  std::priority_queue<double, std::vector<double>, std::greater<double>> heap;
  for (size_t i = 0; i < slots; ++i) heap.push(0.0);
  double makespan = 0;
  for (double t : sorted) {
    double slot = heap.top();
    heap.pop();
    double finish = slot + t;
    makespan = std::max(makespan, finish);
    heap.push(finish);
  }
  return makespan;
}

SimulatedJobTime SimulateJob(const JobMetrics& metrics,
                             const ClusterConfig& cluster) {
  SimulatedJobTime out;
  out.startup_seconds = kJobStartupSeconds;

  const double scale = cluster.work_scale;
  // A task occupies its slot for the whole retry chain: every crashed
  // attempt runs to its crash point before the committed attempt starts
  // over. Speculative losers ran in parallel on other slots, so they are
  // scheduled as independent entries rather than extending the chain.
  auto phase_costs = [scale](const std::vector<TaskMetrics>& tasks) {
    std::vector<double> costs;
    costs.reserve(tasks.size());
    for (const TaskMetrics& t : tasks) {
      costs.push_back((t.failed_attempt_seconds + t.seconds) * scale);
      if (t.speculative_loser_seconds > 0) {
        costs.push_back(t.speculative_loser_seconds * scale);
      }
    }
    return costs;
  };
  // Seconds to move `bytes` at the cluster's aggregate rate.
  auto priced = [scale, &cluster](double bytes, double per_node_rate) {
    const double rate = per_node_rate * static_cast<double>(cluster.nodes);
    return bytes > 0 && rate > 0 ? bytes * scale / rate : 0.0;
  };

  out.map_seconds =
      Makespan(phase_costs(metrics.map_tasks), cluster.map_slots());
  out.shuffle_seconds = priced(static_cast<double>(metrics.shuffle_bytes),
                               kShuffleBytesPerSecondPerNode);
  // Sort-spill-merge disk traffic: each spilled byte is written once and
  // re-read once per consuming merge pass (spilled_bytes already counts
  // intermediate merge re-spills as fresh writes), so the disk moves
  // 2 x spilled_bytes in total.
  out.spill_seconds = priced(2.0 * static_cast<double>(metrics.spilled_bytes),
                             kLocalDiskBytesPerSecondPerNode);
  out.reduce_seconds =
      Makespan(phase_costs(metrics.reduce_tasks), cluster.reduce_slots());
  return out;
}

double SimulatePipelineSeconds(const std::vector<JobMetrics>& jobs,
                               const ClusterConfig& cluster) {
  double total = 0;
  for (const auto& job : jobs) total += SimulateJob(job, cluster).total();
  return total;
}

}  // namespace fj::mr
