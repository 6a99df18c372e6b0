// Cost metering for executed jobs. Every map/reduce task records its
// measured wall time plus any simulated charges; the cluster cost model
// (cluster_model.h) turns the task seconds, shuffle bytes and spilled
// bytes into simulated cluster running times. The other meters are counts
// of work already inside the task seconds, reported but not priced.
//
// All byte/record totals are metered on the emit, spill, and merge paths
// as the data flows — nothing re-walks the intermediate dataset to count
// it. Job-level totals are O(tasks) sums over the per-task records.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/executor.h"

namespace fj::mr {

/// Per-task execution record.
struct TaskMetrics {
  double seconds = 0;          ///< measured wall time + charged seconds
  uint64_t input_records = 0;
  /// Map tasks: split bytes read (lines + terminators). Reduce tasks:
  /// encoded bytes of the partition's merged run blocks.
  uint64_t input_bytes = 0;
  /// Map tasks: records emitted by Map/Teardown, BEFORE the combiner, and
  /// their ByteSizeOf estimate (what the sort buffer charges). Reduce
  /// tasks: output lines and their bytes.
  uint64_t output_records = 0;
  uint64_t output_bytes = 0;
  /// Map tasks only: records actually crossing the shuffle, AFTER the
  /// combiner ran (equal to output_records when no combiner is
  /// configured), and the encoded bytes of the run blocks holding them.
  uint64_t shuffle_records = 0;
  uint64_t shuffle_bytes = 0;
  /// Sort-spill-merge accounting. Map tasks: budget-triggered buffer
  /// spills. Reduce tasks: intermediate merge passes that re-spilled
  /// collapsed runs. spilled_bytes counts each spilled byte once at write
  /// time (it is re-read once per consuming merge pass).
  uint64_t spill_count = 0;
  uint64_t spilled_bytes = 0;
  /// Map tasks only: high-water mark of the sort buffer's charged bytes —
  /// the ByteSizeOf sum of every pair emitted since the last spill. A
  /// combining job charges each emitted pair too, although the buffer
  /// keeps a repeated key only once, so the figure does not depend on the
  /// combiner. Bounded by JobSpec::sort_buffer_bytes (when > 0) unless a
  /// single pair exceeds the whole budget.
  uint64_t peak_buffer_bytes = 0;
  /// Reduce tasks only: merge passes over this partition's runs (the
  /// final streaming merge plus any intermediate collapses; 0 when the
  /// partition arrived as a single run).
  uint64_t merge_passes = 0;

  /// --- Attempt bookkeeping (fault tolerance & speculation) ---
  /// Every field above describes the COMMITTED attempt only, so a faulted
  /// run's committed metrics match the fault-free run exactly; the cost of
  /// attempts that crashed or lost the speculation race lands here.
  /// Total attempts executed for this task (committed + failed +
  /// speculative).
  uint32_t attempts = 1;
  /// Attempts that crashed before committing (the retry chain ran them
  /// sequentially before the committed attempt).
  uint32_t failed_attempts = 0;
  /// Cost of the crashed attempts in the retry chain. The cluster model
  /// serializes this ahead of the committed attempt's cost.
  double failed_attempt_seconds = 0;
  /// A speculative backup was launched for this task.
  bool speculative_launched = false;
  /// The backup finished first and its output was committed.
  bool speculative_won = false;
  /// Slot time the losing side(s) of the speculation race actually
  /// occupied (the straggler when the backup won, the backup otherwise —
  /// including backups that crashed). The loser is killed at the winner's
  /// commit, so this is bounded by the winner's finish time, not the
  /// loser's would-be runtime. Ran concurrently with the winner on
  /// another slot.
  double speculative_loser_seconds = 0;

  /// --- Integrity verification (JobSpec::verify_integrity) ---
  /// Bytes checksum-verified for this task: sorted runs at map-attempt
  /// commit, runs again at the reduce side's merge read, and reduce output
  /// lines at commit. Unlike the committed-attempt fields above these
  /// accumulate across FAILED attempts too — the verification work was
  /// really performed. The hashing runs inside the attempts, so its time
  /// is in their seconds; this count is reported, not priced.
  uint64_t integrity_bytes_verified = 0;
  /// Checksum mismatches detected; each one crashed the detecting attempt
  /// (converted into a transient failure and retried).
  uint32_t corruption_detected = 0;

  /// --- Contract checking (JobSpec::check_contracts) ---
  /// Comparator/partitioner/combiner predicate evaluations and key hashes
  /// performed by the contract checker for the COMMITTED attempt. Checks
  /// run inline, so their time is inside seconds (and a failed attempt's
  /// inside failed_attempt_seconds); counting the committed attempt only
  /// keeps this deterministic across fault plans. Reported, not priced.
  uint64_t contract_checks = 0;

  /// --- Run encoding (record_format.h, JobSpec::block_codec) ---
  /// Pre-codec payload bytes of every run this task encoded (map spills)
  /// or decoded (reduce merge reads); the codec's CPU work is proportional
  /// to these and runs inside the attempt's seconds. Reported, not priced.
  uint64_t codec_logical_bytes = 0;
  /// Encoded (post-codec) bytes of the same runs, block framing included.
  /// The ratio against codec_logical_bytes is the measured compression
  /// ratio; just under 1 under BlockCodec::kNone, where only the framing
  /// differs.
  uint64_t codec_encoded_bytes = 0;

  /// Work thrown away by failures and lost speculation races.
  double wasted_seconds() const {
    return failed_attempt_seconds + speculative_loser_seconds;
  }
};

/// Everything the engine measured about one MapReduce job execution.
struct JobMetrics {
  std::string job_name;
  std::vector<TaskMetrics> map_tasks;
  std::vector<TaskMetrics> reduce_tasks;

  /// Encoded bytes of the run blocks crossing the map->reduce boundary,
  /// after the combiner ran.
  uint64_t shuffle_bytes = 0;
  /// ByteSizeOf estimate of the pairs mappers emitted, before the combiner
  /// (what the sort buffers charged).
  uint64_t map_output_bytes = 0;
  uint64_t map_output_records = 0;
  uint64_t shuffle_records = 0;

  /// Total input bytes read by map tasks.
  uint64_t input_bytes = 0;
  /// Sort-spill-merge totals over all tasks (see TaskMetrics).
  uint64_t spill_count = 0;
  uint64_t spilled_bytes = 0;
  uint64_t merge_passes = 0;

  /// Fault-tolerance totals over all tasks (see TaskMetrics). Committed
  /// byte/record totals above exclude failed and losing attempts.
  uint64_t failed_attempts = 0;
  uint64_t speculative_launched = 0;
  uint64_t speculative_wins = 0;
  double wasted_task_seconds = 0;

  /// Integrity totals (JobSpec::verify_integrity): task sums plus the
  /// job-level input-file verification pass.
  uint64_t integrity_bytes_verified = 0;
  uint64_t corruption_detected = 0;
  /// Contract-checker work over all tasks (see TaskMetrics).
  uint64_t contract_checks = 0;
  /// Run-encoding totals over all tasks (see TaskMetrics).
  uint64_t codec_logical_bytes = 0;
  uint64_t codec_encoded_bytes = 0;
  /// Malformed input records quarantined to `<output_file>.bad` instead of
  /// aborting (see JobSpec::max_skipped_records).
  uint64_t records_skipped = 0;

  /// Real wall time of the whole (local) execution.
  double wall_seconds = 0;
  /// Measured wall time until the last primary map task committed — the
  /// host-machine complement of the simulated map-phase charge. With the
  /// task-graph scheduler reduce tasks overlap map backups, so these two
  /// phases can sum to more than wall_seconds.
  double map_phase_wall_seconds = 0;
  /// Measured wall time from the last map commit to the last primary
  /// reduce commit (clamped at 0 if a reduce finished inside the map
  /// phase's backup window). It includes each reduce task hashing its
  /// committed output lines for the Dfs, work the output commit used to
  /// do serially after the last reduce.
  double reduce_phase_wall_seconds = 0;
  /// Executor activity attributable to this job (stats delta across
  /// Run()): tasks executed/stolen, busy seconds, queue delay. Measured
  /// host values — the simulated cluster charges live in the per-task
  /// records above. Wall-derived, so NOT covered by the determinism
  /// contract (unlike every committed counter above).
  ExecutorStats runtime;

  /// The counters the committed tasks' code added (the stages' own and
  /// LocalScratch's `scratch.bytes_*`). None repeats a typed field above.
  CounterSet counters;

  double TotalMapSeconds() const {
    double s = 0;
    for (const auto& t : map_tasks) s += t.seconds;
    return s;
  }
  double TotalReduceSeconds() const {
    double s = 0;
    for (const auto& t : reduce_tasks) s += t.seconds;
    return s;
  }
};

}  // namespace fj::mr
