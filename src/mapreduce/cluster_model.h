// Deterministic cluster cost model.
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
// occupy slot time without extending the winning task's chain. All wasted
// work (failed attempts + speculation losers) is also reported in
// SimulatedJobTime::wasted_seconds so benchmarks can quote the recovery
// overhead directly.
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
/// sort-spill-merge I/O (map-side spill files, reduce-side merge passes),
/// bytes/second. Every spilled byte is written once and re-read once per
/// consuming merge pass, so the priced traffic is 2 x
/// JobMetrics::spilled_bytes. Jobs running with an unbounded sort buffer
/// never spill and pay nothing here.
inline constexpr double kLocalDiskBytesPerSecondPerNode = 80.0 * 1024 * 1024;

/// Aggregate checksum throughput contributed by each node for the
/// integrity layer (JobSpec::verify_integrity): input files verified
/// before the map phase, sorted runs re-hashed at map commit and at the
/// reduce side's merge read, output lines re-hashed at reduce commit.
/// Priced against JobMetrics::integrity_bytes_verified. FNV/xxhash-class
/// hashing streams at several hundred MB/s per core.
inline constexpr double kIntegrityBytesPerSecondPerNode = 400.0 * 1024 * 1024;

/// Aggregate run-encoding throughput contributed by each node: varint
/// encode at spill time plus decode at the reduce side's merge read, and
/// the optional block codec (JobSpec::block_codec) on top. Priced against
/// JobMetrics::codec_logical_bytes — the pre-codec payload size, which
/// both sides of the codec touch. LZ4-class codecs stream at a few
/// hundred MB/s per core.
inline constexpr double kCodecBytesPerSecondPerNode = 200.0 * 1024 * 1024;

/// Aggregate contract-check throughput contributed by each node
/// (JobSpec::check_contracts): comparator/partitioner/combiner predicate
/// evaluations and key hashes performed by the contract checker, priced
/// against JobMetrics::contract_checks. Each check is a handful of
/// comparisons on in-cache keys — order 10^8/s per node.
inline constexpr double kContractChecksPerSecondPerNode = 100.0 * 1000 * 1000;

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
  /// Checksum time of the integrity verification passes (zero when
  /// JobSpec::verify_integrity was off) — the price of the corruption
  /// guarantee, reported separately so benchmarks can quote the overhead.
  double integrity_seconds = 0;
  /// Contract-checker time (zero when JobSpec::check_contracts was off) —
  /// the price of proving the comparator/partitioner/combiner contract,
  /// reported separately so benchmarks can quote the overhead.
  double contract_seconds = 0;
  /// Run-encoding CPU time — the encode/decode price paid to shrink
  /// shuffle_seconds and spill_seconds, reported separately so benchmarks
  /// can quote the trade-off.
  double codec_seconds = 0;

  /// Slot time consumed by attempts that did not commit: crashed attempts
  /// (serialized into their task's chain) and speculation losers (parallel
  /// entries), scaled by work_scale. Informational — this time is already
  /// inside map_seconds/reduce_seconds, so total() does not add it again.
  double wasted_seconds = 0;

  double total() const {
    return startup_seconds + map_seconds + shuffle_seconds + spill_seconds +
           reduce_seconds + integrity_seconds + contract_seconds +
           codec_seconds;
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
