// Cluster cost model.
//
// The paper evaluates on a 10-node Hadoop cluster (4 map + 4 reduce slots
// per node). This reproduction executes jobs on one machine, meters every
// task, and then *simulates* the cluster running time:
//
//   job_time = startup_overhead
//            + makespan(map task costs on nodes*map_slots slots)
//            + shuffle_bytes / (nodes * kShuffleBytesPerSecondPerNode)
//            + 2 * spilled_bytes / (nodes * kLocalDiskBytesPerSecondPerNode)
//            + makespan(reduce task costs on nodes*reduce_slots slots)
//
// Those five terms are the whole price, and each quantity is priced once.
// A task's cost is TaskMetrics::seconds, the measured wall of its attempt
// (plus LocalScratch's block-processing I/O charge), so work that runs
// inside an attempt — run encoding and decoding, integrity hashing,
// contract checks — is already in the makespans. The meters that count
// that work (codec_*_bytes, integrity_bytes_verified, contract_checks) are
// reported, not priced. Driver-side work outside every task —
// JobRun::Open's input verification, the output commit — is not priced.
// Because task costs are measured walls, repeated runs give different
// simulated times; the bytes and counts the model reads are reproducible.
//
// Makespans use LPT (longest-processing-time-first) list scheduling, which
// captures the effects the paper analyses: a stage with a single reduce
// task cannot speed up; skewed reducers dominate their wave; per-phase job
// overhead penalises multi-phase variants (BTO vs OPTO, BRJ vs OPRJ) on
// small inputs.
//
// Fault tolerance: a task's LPT cost is its whole retry chain — the
// crashed attempts' seconds serialized ahead of the committed attempt,
// exactly as Hadoop re-runs a failed task on a fresh slot after the
// failure is noticed. Speculative losers ran CONCURRENTLY with the winner
// on another slot, so they enter the schedule as separate entries and
// occupy slot time without extending the winning task's chain. The wasted
// work is therefore inside the makespans; JobMetrics::wasted_task_seconds
// reports its measured total.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mapreduce/metrics.h"

namespace fj::mr {

/// The simulated cluster's per-node rates. They are constants, not
/// settings: every paper figure prices against the same physics, and a
/// cost model with fewer knobs is easier to trust (ClusterConfig keeps
/// only the cluster's shape and the work scale).

/// Aggregate shuffle bandwidth contributed by each node, bytes/second.
inline constexpr double kShuffleBytesPerSecondPerNode = 50.0 * 1024 * 1024;

/// Aggregate local-disk bandwidth contributed by each node for
/// sort-spill-merge I/O, bytes/second. Only map tasks spill: every
/// spilled byte is written once and read once by its reduce task's single
/// merge pass, which never re-spills, so the priced traffic is 2 x
/// JobMetrics::spilled_bytes. Jobs running with an unbounded sort buffer
/// never spill and pay nothing here.
inline constexpr double kLocalDiskBytesPerSecondPerNode = 80.0 * 1024 * 1024;

/// Fixed cost of launching one MapReduce job (Hadoop job startup,
/// scheduling, JVM spawn). Charged once per job.
inline constexpr double kJobStartupSeconds = 3.0;

/// Virtual cluster shape: the paper's 10 nodes with 4 map and 4 reduce
/// slots each, by default.
struct ClusterConfig {
  size_t nodes = 10;
  size_t map_slots_per_node = 4;
  size_t reduce_slots_per_node = 4;

  /// Linear extrapolation factor applied to measured task costs and
  /// shuffle bytes (NOT to the per-job startup overhead). The benchmarks
  /// run paper-shaped workloads at laptop scale and set this to the ratio
  /// between the paper's dataset size and the local one, so simulated
  /// stage times land in the paper's regime while startup overhead keeps
  /// its true relative weight. 1.0 = no extrapolation.
  double work_scale = 1.0;

  size_t map_slots() const { return nodes * map_slots_per_node; }
  size_t reduce_slots() const { return nodes * reduce_slots_per_node; }
};

/// Makespan of `task_seconds` scheduled onto `slots` identical slots with
/// LPT list scheduling. Returns 0 for no tasks; requires slots >= 1.
double Makespan(const std::vector<double>& task_seconds, size_t slots);

/// Breakdown of one simulated job execution.
struct SimulatedJobTime {
  double startup_seconds = 0;
  double map_seconds = 0;
  double shuffle_seconds = 0;
  /// Local-disk time of the sort-spill-merge shuffle (spill writes plus
  /// merge re-reads). Zero for jobs that never spill.
  double spill_seconds = 0;
  double reduce_seconds = 0;

  double total() const {
    return startup_seconds + map_seconds + shuffle_seconds + spill_seconds +
           reduce_seconds;
  }
};

/// Simulates `metrics` on `cluster`.
SimulatedJobTime SimulateJob(const JobMetrics& metrics,
                             const ClusterConfig& cluster);

/// Sum of simulated times of a job sequence (stages run back to back, as
/// the paper's three-stage pipeline does).
double SimulatePipelineSeconds(const std::vector<JobMetrics>& jobs,
                               const ClusterConfig& cluster);

}  // namespace fj::mr
