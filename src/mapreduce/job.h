// The MapReduce engine: a single-machine, fully-metered implementation of
// the Hadoop execution contract that the paper's algorithms program against.
//
// Supported hooks (all used somewhere in the fuzzyjoin pipeline):
//   - map / combine / reduce with per-task Setup and Teardown ("configure"
//     and "close" in Hadoop 0.20) — OPTO emits its whole output in Teardown;
//   - a combiner that aggregates map output locally before the shuffle
//     (stage 1 token counting);
//   - a custom partitioner decoupled from the sort order — PK partitions on
//     the token group only while sorting on (group, length), the R-S kernels
//     additionally ignore the relation tag when partitioning;
//   - a custom sort comparator and a custom *group* comparator, so one
//     reduce call can span keys that differ in the secondary-sort fields;
//   - multiple input files with the originating file visible to the mapper
//     (stage 3 BRJ distinguishes record files from RID-pair files);
//   - counters, and per-task cost metering for the cluster cost model.
//
// Execution is layered like Hadoop's shuffle (see DESIGN.md):
//
//   map task   -> SortBuffer (job_spec.h + sort_buffer.h): pairs buffer
//                 against JobSpec::sort_buffer_bytes (grouped by key as
//                 they arrive when the job has a combiner), are sorted by
//                 (partition, key), combined per spill, and written out as
//                 sorted runs — spill I/O charged to the task's scratch;
//   reduce task-> RunMerger (run_merger.h): a streaming k-way merge over
//                 the partition's runs (heap over run cursors, ties broken
//                 by map-task-then-spill rank) feeds Reduce one contiguous
//                 key group at a time — the whole partition is never
//                 re-sorted or re-materialized.
//
// Fault tolerance (fault.h) adds a task-ATTEMPT layer on top:
//
//   - every task runs as a sequence of attempts, each with its own
//     TaskContext, CounterSet, SortBuffer/output, and (on the reduce side)
//     its own copy of the partition's runs — a crashed attempt is dropped
//     wholesale and can never leak partial spills, counters, or output
//     lines into the shuffle or the job result;
//   - a crashing attempt (per the job's FaultPlan) is retried up to
//     JobSpec::max_task_attempts; exhausting the budget fails the job with
//     a structured Status BEFORE any output file is written;
//   - with JobSpec::speculative_execution, tasks whose committed cost
//     exceeds speculation_slowdown_factor x the phase median get a
//     speculative backup attempt; the first finisher (by simulated
//     completion time, backups handicapped by the detection delay) wins
//     the COST-ACCOUNTING commit and the loser's cost is recorded as
//     wasted work. The data hand-off is never re-pointed: attempts are
//     deterministic, so the backup's bytes are identical to the
//     primary's already-published bytes — which is what lets reduce
//     tasks start consuming the shuffle while map backups still run
//     (and means a backup can never poison committed data);
//   - committed TaskMetrics/counters always describe exactly one clean
//     attempt, so a faulted run's committed metrics — and its output
//     bytes — match the fault-free run; the wasted work is tracked in the
//     attempt-bookkeeping fields the cluster model prices separately;
//   - map and reduce tasks climb the same ladder: one retry chain and one
//     backup routine in Job::Run, called with each phase's attempt
//     function, and one copy of their bookkeeping (TallyAttempt,
//     CommitAttempt, FindStragglers, CommitBackup) compiled in job.cc.
//
// Data integrity (integrity.h + JobSpec::verify_integrity) adds the HDFS
// checksum analogue on top of the attempt layer:
//
//   - job inputs are verified against their Dfs hashes before the map
//     phase (a DataLoss input fails the job with a structured Status);
//   - sorted runs carry write-side checksums (SortedRun::checksum) that
//     are re-verified at map-attempt commit and at the reduce side's
//     run-merge read; reduce output lines are hashed at emit and
//     re-verified at the attempt's commit;
//   - independent of verify_integrity, each reduce task computes the Dfs
//     LineChecksum of every line it commits, on its own worker, and the
//     output commit hands those hashes to the Dfs write (dfs.h) instead
//     of the Dfs re-hashing every line on the committing thread;
//   - a mismatch — e.g. an injected CorruptRecord fault, which really
//     mutates a record — crashes the DETECTING attempt, so the ordinary
//     retry loop re-runs the producing attempt under max_task_attempts
//     and a recoverable corruption plan still yields byte-identical
//     output. With verification off the corrupted bytes flow silently.
//   - verified bytes/detections are metered in TaskMetrics (accumulated
//     across failed attempts too) and priced by the cluster model.
//
// The output file commits atomically: lines are written under a temp name
// and renamed into place (Dfs::RenameFile), so no observer can ever read a
// partial output file under the final name. Mappers may route unparsable
// input lines to TaskContext::QuarantineRecord instead of aborting; the
// committed lines land in `<output_file>.bad`, bounded by
// JobSpec::max_skipped_records.
//
// Execution (common/executor.h) is task-graph scheduling on a persistent
// work-stealing executor, not barrier-per-phase:
//
//   - every map task is spawned onto the executor (normally the pipeline's
//     shared JobSpec::executor; a job-private one otherwise). A map task's
//     commit PUBLISHES its sorted runs into per-(map-task x partition)
//     shuffle slots and decrements each partition's pending-input counter;
//     the decrement that hits zero spawns that reduce task. Slots are
//     indexed by map task, so runs are consumed in map-task-then-spill
//     order no matter which order commits land in — the rank order the
//     merger's tie-break relies on;
//   - speculative backups narrow the old map->reduce barrier instead of
//     re-imposing it: reduce tasks overlap still-running map backups,
//     which only ever re-commit cost accounting (see above);
//   - reduce attempts that must copy their runs (preserve_runs) reuse a
//     per-WORKER scratch buffer — overwritten in full by each attempt, so
//     attempt isolation is preserved without reallocating per attempt;
//   - an exception escaping a task surfaces as an Internal Status from
//     the job (first one wins), not a std::terminate;
//   - measured per-phase wall times and the executor's activity counters
//     land in JobMetrics (map/reduce_phase_wall_seconds, runtime) next to
//     the simulated charges.
//
// Determinism: runs are internally in emit order (stable sort) and the
// merge breaks ties toward earlier runs, so output is byte-identical to
// the legacy unbounded path (sort_buffer_bytes == 0, a single in-memory
// run per map task) — and, because attempts re-execute deterministically,
// also byte-identical under any recoverable fault plan AND under any
// thread count (committed counters and committed task metrics too; only
// wall-time-derived fields vary). Reduce output lines are written to the
// job's output file in the Dfs, concatenated in reduce-task order.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/executor.h"
#include "common/hash.h"
#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/timer.h"
#include "mapreduce/contract.h"
#include "mapreduce/dfs.h"
#include "mapreduce/fault.h"
#include "mapreduce/input.h"
#include "mapreduce/integrity.h"
#include "mapreduce/job_spec.h"
#include "mapreduce/metrics.h"
#include "mapreduce/run_merger.h"
#include "mapreduce/shuffle_segment.h"
#include "mapreduce/shuffle_transport.h"
#include "mapreduce/sort_buffer.h"
#include "mapreduce/task_context.h"

namespace fj::mr {

// The engine's type-independent bookkeeping, compiled once in job.cc.
namespace internal {

/// Copies a finished task's scratch I/O into the attempt's counters.
void AccountScratch(const TaskContext& ctx, CounterSet* counters);

/// The attempt's cost: measured wall time plus simulated charges, slowed
/// down by any straggler fault.
double AttemptSeconds(const WallTimer& timer, const TaskContext& ctx,
                      const AttemptFault& fault);

/// What the attempt ladder reads of one finished attempt of either phase.
struct AttemptResult {
  bool crashed = false;
  TaskMetrics metrics;
  CounterSet counters;
  /// Contract violation found by this attempt (check_contracts). Attempts
  /// are deterministic, so a violation is PERMANENT: the job fails with
  /// this Status immediately, no retry.
  Status contract;
};

/// Retry-chain bookkeeping. TallyAttempt folds a finished attempt into
/// `chain`: its verification work and detections always (the bytes were
/// really hashed even when the attempt then crashed), and its cost as a
/// failed attempt when it crashed. CommitAttempt stamps the clean
/// attempt's metrics with the chain's tally.
void TallyAttempt(const TaskMetrics& attempt, bool crashed,
                  TaskMetrics* chain);
TaskMetrics CommitAttempt(TaskMetrics clean, const TaskMetrics& chain);

/// The tasks whose committed cost exceeds `slowdown_factor` x the phase
/// median, which lands in `*median`; none in a phase of under two tasks.
std::vector<size_t> FindStragglers(const std::vector<TaskMetrics>& tasks,
                                   double slowdown_factor, double* median);

/// First-finisher-wins cost commit of a backup attempt of `*task`,
/// launched when the detector noticed, at `median`. A crashed backup
/// loses. The loser is KILLED at the winner's commit, so it occupies its
/// slot only until then — that kill is what makes speculation pay.
void CommitBackup(TaskMetrics backup, bool crashed, double median,
                  TaskMetrics* task);

/// Sums the committed task metrics (plus the inputs' verified bytes) into
/// the job totals and the job counters they feed — O(tasks), never a walk
/// over the intermediate data.
void SumJobTotals(const EngineOptions& options,
                  uint64_t input_integrity_bytes, JobMetrics* metrics);

}  // namespace internal

/// Executes JobSpecs against a Dfs.
template <typename K, typename V>
class Job {
 public:
  Job(Dfs* dfs, JobSpec<K, V> spec) : dfs_(dfs), spec_(std::move(spec)) {}

  /// Runs the job; on success the output file exists in the Dfs and the
  /// returned metrics describe every task. A task that fails permanently
  /// (every attempt crashed) returns a non-OK Status and writes nothing.
  Result<JobMetrics> Run();

 private:
  using Pair = std::pair<K, V>;

  class VectorOutputEmitter : public OutputEmitter {
   public:
    VectorOutputEmitter(std::vector<std::string>* lines, TaskMetrics* metrics,
                        bool hash_lines)
        : lines_(lines), metrics_(metrics), hash_lines_(hash_lines) {}
    void Emit(std::string line) override {
      metrics_->output_records++;
      metrics_->output_bytes += line.size() + 1;
      // Write-side checksum of the attempt's output stream, re-verified at
      // commit (the reduce-output integrity boundary).
      if (hash_lines_) checksum_ = HashCombine(checksum_, LineChecksum(line));
      lines_->push_back(std::move(line));
    }
    uint64_t checksum() const { return checksum_; }

   private:
    std::vector<std::string>* lines_;
    TaskMetrics* metrics_;
    bool hash_lines_;
    uint64_t checksum_ = kFnvOffsetBasis;
  };

  /// Everything one attempt produces, scoped to the attempt so a crash
  /// discards it wholesale.
  struct MapAttemptResult : internal::AttemptResult {
    MapTaskOutput<K, V> output;
    /// Malformed input lines the attempt quarantined (committed with it).
    std::vector<std::string> quarantined;
  };

  struct ReduceAttemptResult : internal::AttemptResult {
    std::vector<std::string> output;
    /// LineChecksum of each output line, as committed (set unless crashed).
    std::vector<uint64_t> line_checksums;
  };

  /// Injected CorruptRecord fault: really mutates the attempt's shuffle
  /// output, AFTER the write-side checksums were computed — exactly the
  /// window HDFS block checksums guard. Prefers a run matching the fault's
  /// target (on-disk spill vs. in-memory map output), falling back to any
  /// non-empty run so a kSpill fault still bites when the job never
  /// spilled. Text runs get one value mutated; binary runs get one byte of
  /// the ENCODED block flipped — bit rot hits the stored representation,
  /// compressed or not, and must still be caught at the read boundaries.
  static void CorruptMapOutput(MapTaskOutput<K, V>* out,
                               const AttemptFault& fault) {
    std::vector<SortedRun<K, V>*> any, preferred;
    const bool want_disk = fault.corrupt_target == CorruptTarget::kSpill;
    for (auto& spill : out->spills) {
      for (SortedRun<K, V>& run : spill) {
        if (!run.HasRecords()) continue;
        any.push_back(&run);
        if (run.on_disk == want_disk) preferred.push_back(&run);
      }
    }
    auto& pool = preferred.empty() ? any : preferred;
    if (pool.empty()) return;  // nothing to corrupt: the attempt stays clean
    SortedRun<K, V>* run = pool[fault.corrupt_salt % pool.size()];
    if (!run->encoded.empty()) {
      std::string& block = run->encoded;
      block[HashInt64(fault.corrupt_salt) % block.size()] ^=
          static_cast<char>(1u << (1 + fault.corrupt_salt % 7));
      return;
    }
    auto& pair = run->pairs[HashInt64(fault.corrupt_salt) % run->pairs.size()];
    // Corrupt the value side: record data, not routing metadata — flipping
    // a key could silently re-partition instead of modelling bit rot.
    CorruptInPlace(pair.second, HashInt64(fault.corrupt_salt ^ 0x5eed));
  }

  MapAttemptResult RunMapAttempt(const InputSplit& split,
                                 const std::vector<std::string>& lines,
                                 const SpecOrdering<K, V>& ordering,
                                 size_t task_id, uint32_t attempt,
                                 const AttemptFault& fault);

  /// `copy_scratch` is the executing worker's reusable run-copy buffer for
  /// the preserve_runs path; every attempt overwrites it in full, so reuse
  /// across attempts (and across tasks on the same worker) cannot leak
  /// state between them. `runs_encoded` says the input runs carry encoded
  /// payloads that must be decoded into the attempt's private copies —
  /// true for binary-format runs and for every run fetched through a
  /// shuffle transport (text runs cross the wire as encoded blocks too).
  ReduceAttemptResult RunReduceAttempt(
      const std::vector<SortedRun<K, V>*>& partition_runs, bool preserve_runs,
      bool runs_encoded, const SpecOrdering<K, V>& ordering,
      size_t merge_factor, size_t task_id, uint32_t attempt,
      const AttemptFault& fault, std::vector<SortedRun<K, V>>* copy_scratch);

  Dfs* dfs_;
  JobSpec<K, V> spec_;
};

template <typename K, typename V>
typename Job<K, V>::MapAttemptResult Job<K, V>::RunMapAttempt(
    const InputSplit& split, const std::vector<std::string>& lines,
    const SpecOrdering<K, V>& ordering, size_t task_id, uint32_t attempt,
    const AttemptFault& fault) {
  MapAttemptResult res;
  WallTimer timer;
  TaskContext ctx(task_id, attempt, &res.counters);
  ctx.set_fault(fault);
  // Attempt-scoped contract checker: like counters and the sort buffer, a
  // crashed attempt's checker state is dropped with the attempt.
  std::optional<KeyContractChecker<K, SpecOrdering<K, V>>> checker;
  if (spec_.check_contracts) {
    checker.emplace(&ordering, spec_.num_reduce_tasks,
                    spec_.contract_sample_every, spec_.name);
  }
  SortBuffer<K, V> buffer(&spec_, &ordering, &ctx, &res.metrics, &res.output,
                          checker ? &*checker : nullptr);

  auto mapper = spec_.mapper_factory();
  mapper->Setup(&ctx);
  for (size_t i = split.begin_line; i < split.end_line; ++i) {
    if (ctx.CrashDue()) {
      res.crashed = true;
      break;
    }
    // A latched contract violation fails the whole job; stop feeding the
    // mapper so the attempt winds down fast.
    if (checker && !checker->ok()) break;
    InputRecord record{split.file_index, &split.file_name, i, &lines[i]};
    mapper->Map(record, &buffer, &ctx);
    ctx.NoteRecordProcessed();
    res.metrics.input_records++;
    res.metrics.input_bytes += lines[i].size() + 1;
  }
  // A crash budget equal to the split size fires before Teardown — the
  // attempt dies without flushing (OPTO-style Teardown emitters included).
  if (!res.crashed && ctx.CrashDue()) res.crashed = true;
  if (!res.crashed && (!checker || checker->ok())) {
    mapper->Teardown(&buffer, &ctx);
    buffer.Flush();
    internal::AccountScratch(ctx, &res.counters);
    res.quarantined = ctx.TakeQuarantined();
  }
  if (checker) {
    // Every observed key did a partition-range check; the rest of the work
    // is counted per predicate evaluation in ContractStats::checks.
    res.metrics.contract_checks =
        checker->stats().checks + checker->stats().keys_observed;
    res.contract = checker->status();
    if (!res.contract.ok()) {
      res.metrics.seconds = internal::AttemptSeconds(timer, ctx, fault);
      return res;
    }
  }
  if (!res.crashed && (fault.corrupt_target == CorruptTarget::kMapOutput ||
                       fault.corrupt_target == CorruptTarget::kSpill)) {
    CorruptMapOutput(&res.output, fault);
  }
  // Commit-time verification of the attempt's runs against their
  // write-side checksums. A mismatch converts the corruption into a
  // transient failure: the attempt is marked crashed and the ordinary
  // retry loop re-runs the producing attempt.
  if (!res.crashed && spec_.verify_integrity) {
    for (auto& spill : res.output.spills) {
      for (const SortedRun<K, V>& run : spill) {
        if (!run.HasRecords()) continue;
        res.metrics.integrity_bytes_verified += run.bytes;
        // Binary runs are checksummed over their encoded block bytes (the
        // bytes the shuffle actually carries); text runs over their pairs.
        const uint64_t actual = run.encoded.empty()
                                    ? RunChecksum(run.pairs)
                                    : HashString(run.encoded);
        if (actual != run.checksum) {
          res.metrics.corruption_detected++;
          res.crashed = true;
        }
      }
    }
  }
  res.metrics.seconds = internal::AttemptSeconds(timer, ctx, fault);
  return res;
}

template <typename K, typename V>
typename Job<K, V>::ReduceAttemptResult Job<K, V>::RunReduceAttempt(
    const std::vector<SortedRun<K, V>*>& partition_runs, bool preserve_runs,
    bool runs_encoded, const SpecOrdering<K, V>& ordering, size_t merge_factor,
    size_t task_id, uint32_t attempt, const AttemptFault& fault,
    std::vector<SortedRun<K, V>>* copy_scratch) {
  ReduceAttemptResult res;
  WallTimer timer;
  TaskContext ctx(task_id, attempt, &res.counters);
  ctx.set_fault(fault);
  VectorOutputEmitter out(&res.output, &res.metrics,
                          /*hash_lines=*/spec_.verify_integrity);

  // The merge consumes its input runs, so when this task may run more than
  // once (faults or speculation active) each attempt merges an
  // attempt-scoped copy and the shuffle data stays pristine for the next
  // attempt. The copies land in the worker's reusable scratch (every
  // field overwritten from the pristine run, so nothing of a previous
  // attempt survives, but pair-vector capacity is recycled). Fault-free
  // text jobs keep the zero-copy path; encoded runs (binary format, or
  // anything fetched through a shuffle transport) always copy, because
  // decoding the encoded block IS the attempt-isolation copy: the copy
  // takes the run's metadata, and its pairs are decoded below straight
  // from the published block, which is only ever read.
  const bool binary = spec_.record_format == RecordFormat::kBinary;
  std::vector<SortedRun<K, V>>& copies = *copy_scratch;
  std::vector<SortedRun<K, V>*> runs;
  if (preserve_runs || runs_encoded) {
    copies.resize(partition_runs.size());
    runs.reserve(partition_runs.size());
    for (size_t i = 0; i < partition_runs.size(); ++i) {
      const SortedRun<K, V>& published = *partition_runs[i];
      SortedRun<K, V>& copy = copies[i];
      if (published.encoded.empty()) {
        copy = published;
      } else {
        copy.pairs.clear();
        copy.encoded.clear();
        copy.bytes = published.bytes;
        copy.on_disk = published.on_disk;
        copy.checksum = published.checksum;
        copy.record_count = published.record_count;
        copy.logical_bytes = published.logical_bytes;
      }
      runs.push_back(&copy);
    }
  } else {
    runs = partition_runs;
  }

  // Run-merge read verification (the "checksum on read" half): each run is
  // re-verified before the merge consumes it. Map-commit verification means
  // a corrupted run normally never gets this far, but the read-side check
  // is what the cost model prices — HDFS clients verify every block read.
  // Binary runs verify the encoded block bytes BEFORE any decode touches
  // them, like an HDFS client checksumming a compressed block on read.
  // Every check reads the published run: a copy holds the same pairs, and
  // an encoded run's block is never copied.
  if (spec_.verify_integrity) {
    for (const SortedRun<K, V>* run : partition_runs) {
      if (!run->HasRecords()) continue;
      res.metrics.integrity_bytes_verified += run->bytes;
      const uint64_t actual = run->encoded.empty() ? RunChecksum(run->pairs)
                                                   : HashString(run->encoded);
      if (actual != run->checksum) {
        res.metrics.corruption_detected++;
        res.crashed = true;
      }
    }
    if (res.crashed) {
      res.metrics.seconds = internal::AttemptSeconds(timer, ctx, fault);
      return res;
    }
  }

  // Decode encoded runs from their published blocks into the attempt's
  // private copies. A block that fails to decode (truncated varint, bad
  // codec frame) crashes the attempt with a counted detection — a
  // transient failure under the retry budget, never UB and never
  // silently-wrong pairs. Codec CPU is only metered in binary format:
  // transport-encoded text runs keep the text job's committed counters
  // identical to the in-process run.
  if (runs_encoded) {
    CodecScratch codec_scratch;
    for (size_t i = 0; i < partition_runs.size(); ++i) {
      const SortedRun<K, V>& published = *partition_runs[i];
      if (published.encoded.empty()) continue;
      Status decoded = DecodeRunBlock(published.encoded, &codec_scratch,
                                      &runs[i]->pairs);
      if (!decoded.ok()) {
        res.metrics.corruption_detected++;
        res.crashed = true;
        res.metrics.seconds = internal::AttemptSeconds(timer, ctx, fault);
        return res;
      }
      if (binary) {
        res.metrics.codec_encoded_bytes += published.encoded.size();
        res.metrics.codec_logical_bytes += published.logical_bytes;
      }
    }
  }
  for (const SortedRun<K, V>* run : runs) {
    res.metrics.input_records += run->pairs.size();
    res.metrics.input_bytes += run->bytes;
  }

  // Reduce-side contract checker: verifies group contiguity, merge order,
  // and that user code leaves group keys untouched mid-call.
  std::optional<GroupContractChecker<K, SpecOrdering<K, V>>> checker;
  if (spec_.check_contracts) checker.emplace(&ordering, spec_.name);

  auto reducer = spec_.reducer_factory();
  reducer->Setup(&ctx);
  RunMerger<K, V> merger(&ordering, std::move(runs), merge_factor, &ctx,
                         &res.metrics);
  merger.ForEachGroup(
      [&reducer, &out, &ctx, &res, &checker](std::span<const Pair> group)
          -> bool {
        if (ctx.CrashDue()) {
          res.crashed = true;
          return false;
        }
        uint64_t key_fingerprint = 0;
        if (checker) {
          key_fingerprint = checker->ObserveGroup(group.front().first);
          if (!checker->ok()) return false;
        }
        reducer->Reduce(group.front().first, group, &out, &ctx);
        if (checker) {
          checker->CheckKeyUnchanged(group.front().first, key_fingerprint);
          if (!checker->ok()) return false;
        }
        ctx.NoteRecordProcessed();
        return true;
      });
  if (checker) {
    res.metrics.contract_checks = checker->stats().checks;
    res.contract = checker->status();
    if (!res.contract.ok()) {
      res.metrics.seconds = internal::AttemptSeconds(timer, ctx, fault);
      return res;
    }
  }
  if (!res.crashed && ctx.CrashDue()) res.crashed = true;
  if (!res.crashed) {
    reducer->Teardown(&out, &ctx);
    internal::AccountScratch(ctx, &res.counters);
  }
  if (!res.crashed && fault.corrupt_target == CorruptTarget::kReduceOutput &&
      !res.output.empty()) {
    CorruptInPlace(res.output[fault.corrupt_salt % res.output.size()],
                   HashInt64(fault.corrupt_salt ^ 0x07));
  }
  // The Dfs checksum of every line this attempt would commit, hashed here
  // on the task's worker — after the fault injection above, so exactly the
  // bytes that get committed — and handed to the output write, which then
  // only folds them (dfs.h). Commit-time verification of the output lines
  // against the emitter's write-side stream hash folds the same hashes.
  if (!res.crashed) {
    res.line_checksums.reserve(res.output.size());
    for (const std::string& line : res.output) {
      res.line_checksums.push_back(LineChecksum(line));
    }
  }
  if (!res.crashed && spec_.verify_integrity) {
    uint64_t fold = kFnvOffsetBasis;
    for (size_t i = 0; i < res.output.size(); ++i) {
      fold = HashCombine(fold, res.line_checksums[i]);
      res.metrics.integrity_bytes_verified += res.output[i].size() + 1;
    }
    if (fold != out.checksum()) {
      res.metrics.corruption_detected++;
      res.crashed = true;
    }
  }
  res.metrics.seconds = internal::AttemptSeconds(timer, ctx, fault);
  return res;
}

template <typename K, typename V>
Result<JobMetrics> Job<K, V>::Run() {
  if (!spec_.mapper_factory) {
    return Status::InvalidArgument("job '" + spec_.name + "': no mapper");
  }
  if (!spec_.reducer_factory) {
    return Status::InvalidArgument("job '" + spec_.name + "': no reducer");
  }
  if (spec_.num_reduce_tasks == 0) {
    return Status::InvalidArgument("job '" + spec_.name +
                                   "': num_reduce_tasks must be >= 1");
  }
  if (Status engine = spec_.Validate(); !engine.ok()) {
    return Status(engine.code(),
                  "job '" + spec_.name + "': " + engine.message());
  }
  if (spec_.input_files.empty()) {
    return Status::InvalidArgument("job '" + spec_.name + "': no input files");
  }
  if (spec_.combiner && (spec_.sort_less || spec_.group_equal)) {
    // The sort buffer groups combiner input by key in a hash table, which
    // cannot form a group of two different keys.
    return Status::InvalidArgument(
        "job '" + spec_.name +
        "': a combiner needs the default sort_less and group_equal");
  }

  WallTimer job_timer;
  JobMetrics metrics;
  metrics.job_name = spec_.name;

  FJ_ASSIGN_OR_RETURN(std::vector<InputSplit> splits,
                      dfs_->MakeSplits(spec_.input_files, spec_.num_map_tasks));

  // Resolve input file contents up front (pointers stay valid: Dfs never
  // moves a file's line storage).
  std::vector<const std::vector<std::string>*> file_lines(
      spec_.input_files.size());
  for (size_t i = 0; i < spec_.input_files.size(); ++i) {
    FJ_ASSIGN_OR_RETURN(file_lines[i], dfs_->ReadFile(spec_.input_files[i]));
  }

  // Input integrity: verify every input file against its Dfs checksums
  // before any task reads it. A corrupted input has no healthy producer to
  // re-run, so this is a structured job failure, not a retry.
  uint64_t input_integrity_bytes = 0;
  if (spec_.verify_integrity) {
    for (const std::string& file : spec_.input_files) {
      Result<uint64_t> verified = dfs_->VerifyFile(file);
      if (!verified.ok()) {
        return Status(verified.status().code(),
                      "job '" + spec_.name + "': " +
                          verified.status().message());
      }
      input_integrity_bytes += *verified;
    }
  }

  const size_t num_map_tasks = splits.size();
  const size_t num_reduce_tasks = spec_.num_reduce_tasks;
  const SpecOrdering<K, V> ordering(&spec_);
  const FaultInjector injector(spec_.fault_plan.get(), spec_.name);
  // Reduce attempts must not consume the shuffle when a retry or backup
  // might need it again.
  const bool preserve_runs = injector.active() || spec_.speculative_execution;
  // Shuffle transport (spec_.shuffle_transport): when set, committed map
  // output crosses a real hand-off — encoded, Publish()ed, Fetch()ed back,
  // and checksum-verified — and the reduce side merges the FETCHED bytes.
  ShuffleTransport* const transport = spec_.shuffle_transport.get();
  const uint64_t net_losses_before =
      transport ? transport->worker_losses() : 0;
  // Transport-fetched runs arrive with encoded payloads even in text
  // format (they crossed the wire as blocks), so reduce attempts decode.
  const bool runs_encoded =
      spec_.record_format == RecordFormat::kBinary || transport != nullptr;

  // The host executor: normally the pipeline's shared one (one set of
  // persistent workers serving every job of every stage); a standalone
  // job gets a private executor sized by local_threads.
  std::shared_ptr<Executor> executor = spec_.executor;
  if (!executor) executor = std::make_shared<Executor>(spec_.local_threads);
  const ExecutorStats runtime_before = executor->stats();

  // First job failure wins — an exhausted retry chain, a contract
  // violation (a deterministic user-code bug: no retry, no output), an
  // unrecoverable shuffle segment; later ones are redundant detail.
  // job_failed is the lock-free "already latched?" flag task bodies poll.
  // Job-local latch; ranked kJobState — held across nothing but the
  // status write, always acquired from task bodies that hold no lock.
  Mutex failure_mu{"job.failure", lock_rank::kJobState};
  Status job_status;
  std::atomic<bool> job_failed{false};
  auto latch_status = [&failure_mu, &job_status, &job_failed](const Status& s) {
    MutexLock lock(&failure_mu);
    if (job_status.ok()) job_status = s;
    job_failed.store(true, std::memory_order_release);
  };

  metrics.map_tasks.resize(num_map_tasks);
  metrics.reduce_tasks.resize(num_reduce_tasks);
  std::vector<MapTaskOutput<K, V>> map_outputs(num_map_tasks);
  std::vector<std::vector<std::string>> quarantined(num_map_tasks);
  std::vector<std::vector<std::string>> reduce_outputs(num_reduce_tasks);
  std::vector<std::vector<uint64_t>> reduce_checksums(num_reduce_tasks);

  // Unbounded runs are plain in-memory vectors; a single merge pass over
  // any number of them is free, so the multi-pass collapse (and its disk
  // charges) only applies when the job actually spills.
  const size_t merge_factor = spec_.sort_buffer_bytes > 0
                                  ? spec_.merge_factor
                                  : std::numeric_limits<size_t>::max();

  // ---- Task-graph state ----
  // The shuffle hand-off is partition-granular: map_outputs[m] is task m's
  // slot row (its committed runs, per partition), and reduce task r is
  // released the instant reduce_inputs_pending[r] — decremented once per
  // finished map task, acq_rel so the publish is visible — hits zero.
  // Failed maps decrement too; the reduce bodies early-out on the latched
  // status, which keeps the countdown total.
  std::vector<std::atomic<size_t>> reduce_inputs_pending(num_reduce_tasks);
  for (auto& pending : reduce_inputs_pending) {
    pending.store(num_map_tasks, std::memory_order_relaxed);
  }
  // Built by each reduce task from the committed slot board, reused by
  // its speculative backup (which runs strictly after it).
  std::vector<std::vector<SortedRun<K, V>*>> partition_runs(num_reduce_tasks);
  // Transport runs only: the fetched-and-verified segments, decoded back
  // into runs (payloads still encoded) at [map task][partition]. Written
  // by the map commit hand-off strictly BEFORE the countdown decrement
  // that can release partition r, read by reduce tasks after it — the
  // countdown is the synchronization edge.
  std::vector<std::vector<std::vector<SortedRun<K, V>>>> fetched_slots(
      transport ? num_map_tasks : 0,
      std::vector<std::vector<SortedRun<K, V>>>(num_reduce_tasks));
  Mutex net_mu{"job.net", lock_rank::kJobState};  // guards the metrics.net_* accumulators
  std::atomic<size_t> maps_remaining{num_map_tasks};
  std::atomic<size_t> reduces_remaining{num_reduce_tasks};
  // Measured phase walls, stamped by whichever worker completed the
  // phase; read by this thread only after the group Wait synchronizes.
  double map_done_wall = 0;
  double reduce_done_wall = 0;

  // Per-worker reduce-side run-copy scratch (see RunReduceAttempt). The
  // extra slot serves a non-worker caller — impossible today, but it
  // keeps the indexing total.
  std::vector<std::vector<SortedRun<K, V>>> reduce_scratch(
      executor->num_workers() + 1);
  auto worker_scratch = [&reduce_scratch, &executor] {
    const size_t w = executor->CurrentWorkerIndex();
    return &reduce_scratch[w == Executor::kNotAWorker
                               ? reduce_scratch.size() - 1
                               : w];
  };

  TaskGroup group(executor.get());

  // ---- Task bodies ----
  // One attempt of each phase's task t, as numbered by the attempt ladder.
  auto map_attempt = [this, &splits, &file_lines, &ordering, &injector](
                         size_t m, uint32_t attempt) {
    const InputSplit& split = splits[m];
    return RunMapAttempt(split, *file_lines[split.file_index], ordering, m,
                         attempt,
                         injector.FaultFor(TaskPhase::kMap, m, attempt));
  };
  auto reduce_attempt = [this, preserve_runs, runs_encoded, merge_factor,
                         &partition_runs, &ordering, &injector,
                         &worker_scratch](size_t r, uint32_t attempt) {
    return RunReduceAttempt(partition_runs[r], preserve_runs, runs_encoded,
                            ordering, merge_factor, r, attempt,
                            injector.FaultFor(TaskPhase::kReduce, r, attempt),
                            worker_scratch());
  };

  // The retry chain of one task of either phase: attempts run sequentially
  // on one worker until one commits — its metrics and counters become the
  // task's, and `commit` takes its output; failed attempts only leave their
  // cost behind — or the budget is exhausted.
  auto run_chain = [this, &metrics, &latch_status](
                       TaskPhase phase, size_t t, const auto& attempt_fn,
                       const auto& commit) {
    TaskMetrics& task = phase == TaskPhase::kMap ? metrics.map_tasks[t]
                                                 : metrics.reduce_tasks[t];
    TaskMetrics chain;
    for (uint32_t attempt = 0; attempt < spec_.max_task_attempts; ++attempt) {
      auto res = attempt_fn(t, attempt);
      internal::TallyAttempt(res.metrics, res.crashed, &chain);
      if (!res.contract.ok()) {
        // Deterministic violation — retrying would find it again.
        task.contract_checks = res.metrics.contract_checks;
        latch_status(res.contract);
        return;
      }
      if (res.crashed) continue;
      task = internal::CommitAttempt(std::move(res.metrics), chain);
      metrics.counters.MergeFrom(res.counters);
      commit(t, res);
      return;
    }
    // Every attempt crashed: the task's metrics are the chain's tally.
    chain.attempts = chain.failed_attempts;
    task = chain;
    latch_status(Status::Internal(
        "job '" + spec_.name + "': " + TaskPhaseName(phase) + " task " +
        std::to_string(t) + " failed permanently after " +
        std::to_string(spec_.max_task_attempts) + " attempts"));
  };

  // Speculative backups of one phase, spawned by its completion
  // continuation: stragglers get a backup attempt, and the first finisher
  // (by simulated time) wins the COST commit. A backup never re-points the
  // committed output: attempts are deterministic, so its bytes, counters
  // and quarantined lines equal the primary's — which is exactly what lets
  // the released reduce tasks keep consuming the shuffle while map backups
  // are still in flight.
  auto spawn_backups = [this, &group, &job_failed](
                           std::vector<TaskMetrics>* tasks,
                           const auto& attempt_fn) {
    if (!spec_.speculative_execution ||
        job_failed.load(std::memory_order_acquire)) {
      return;
    }
    double median = 0;
    for (size_t t : internal::FindStragglers(
             *tasks, spec_.speculation_slowdown_factor, &median)) {
      group.Spawn([tasks, t, median, attempt_fn] {
        TaskMetrics& task = (*tasks)[t];
        auto res = attempt_fn(t, task.attempts);
        internal::CommitBackup(std::move(res.metrics), res.crashed, median,
                               &task);
      });
    }
  };

  auto commit_map = [&map_outputs, &quarantined](size_t m,
                                                 MapAttemptResult& res) {
    map_outputs[m] = std::move(res.output);
    quarantined[m] = std::move(res.quarantined);
  };
  auto commit_reduce = [&reduce_outputs, &reduce_checksums](
                           size_t r, ReduceAttemptResult& res) {
    reduce_outputs[r] = std::move(res.output);
    reduce_checksums[r] = std::move(res.line_checksums);
  };

  // Map-phase completion continuation, run by whichever worker finished
  // the last map task. Quarantine accounting must precede the final
  // reduce release (the old engine checked it between the phases).
  auto on_maps_done = [this, &job_timer, &map_done_wall, &metrics,
                       &quarantined, &latch_status, &spawn_backups,
                       &map_attempt] {
    map_done_wall = job_timer.ElapsedSeconds();
    // Quarantine bookkeeping: malformed input lines the committed map
    // attempts routed to TaskContext::QuarantineRecord (attempts are
    // deterministic, so retries and backups quarantine identically).
    for (const auto& task_lines : quarantined) {
      metrics.records_skipped += task_lines.size();
    }
    if (metrics.records_skipped > spec_.max_skipped_records) {
      latch_status(Status::DataLoss(
          "job '" + spec_.name + "': " +
          std::to_string(metrics.records_skipped) +
          " malformed input records exceed max_skipped_records=" +
          std::to_string(spec_.max_skipped_records)));
      return;
    }
    spawn_backups(&metrics.map_tasks, map_attempt);
  };

  // Reduce-phase completion continuation: stamp the wall when the last
  // PRIMARY reduce commits (backups it spawns run past it, tracked by the
  // same group).
  auto on_reduces_done = [&job_timer, &reduce_done_wall, &spawn_backups,
                          &metrics, &reduce_attempt] {
    reduce_done_wall = job_timer.ElapsedSeconds();
    spawn_backups(&metrics.reduce_tasks, reduce_attempt);
  };

  // One reduce task: a streaming k-way merge over the partition's
  // committed runs, under the retry chain.
  auto run_reduce_task = [&run_chain, &reduce_attempt, &commit_reduce,
                          transport, &map_outputs, &fetched_slots,
                          &partition_runs, &job_failed, &reduces_remaining,
                          &on_reduces_done, num_map_tasks](size_t r) {
    if (!job_failed.load(std::memory_order_acquire)) {
      // This partition's runs from every map task, in map-task-then-spill
      // order — the rank order the merger's tie-break relies on. The slot
      // board is indexed by map task, so commit ARRIVAL order cannot
      // perturb it. Under a transport the board is the FETCHED segments
      // (decoded back in spill order): the reduce side consumes what
      // crossed the wire, never the local map output.
      std::vector<SortedRun<K, V>*>& runs = partition_runs[r];
      if (transport) {
        for (size_t m = 0; m < num_map_tasks; ++m) {
          for (auto& run : fetched_slots[m][r]) runs.push_back(&run);
        }
      } else {
        for (size_t m = 0; m < num_map_tasks; ++m) {
          for (auto& spill : map_outputs[m].spills) {
            if (spill[r].HasRecords()) runs.push_back(&spill[r]);
          }
        }
      }
      run_chain(TaskPhase::kReduce, r, reduce_attempt, commit_reduce);
    }
    if (reduces_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      on_reduces_done();
    }
  };

  // Transport hand-off for one committed segment (map m x partition r):
  // publish, fetch back, verify, decode into fetched_slots[m][r]. Rung 1
  // of the recovery ladder lives inside the transport (per-fetch
  // deadlines, exponential backoff + jitter, bounded retry budgets);
  // each round of the loop here climbs the rest: a failed fetch falls
  // back to the map task's locally committed output (rung 2, the DFS
  // spill analogue), and past that the committed map attempt is
  // deterministically re-executed and re-published so the transport can
  // re-route the segment to a surviving worker (rung 3, the PR 3 retry
  // machinery's re-run). Only after every rung fails does the job latch
  // a structured Unavailable.
  auto transport_shuffle = [this, transport, &map_outputs, &fetched_slots,
                            &metrics, &net_mu, &map_attempt, &latch_status](
                               size_t m, size_t r,
                               uint32_t committed_attempt) {
    bool has_records = false;
    for (const auto& spill : map_outputs[m].spills) {
      if (r < spill.size() && spill[r].HasRecords()) has_records = true;
    }
    if (!has_records) return;  // empty slot: nothing crosses the wire
    WallTimer fetch_timer;
    const ShuffleSegmentKey key{spec_.name, m, r};
    NetCallStats stats;
    std::string segment;
    EncodeShuffleSegment(map_outputs[m], r, spec_.verify_integrity, &segment);
    uint64_t published_count = 0, redundant = 0, reruns = 0,
             decode_corruptions = 0;
    std::vector<SortedRun<K, V>> runs;
    Status shuffled = Status::Unavailable("shuffle hand-off never ran");
    for (int round = 0; round < 3; ++round) {
      Status published = transport->Publish(key, segment, &stats);
      if (published.ok()) {
        published_count++;
        Result<std::string> fetched = transport->Fetch(key, &stats);
        if (fetched.ok()) {
          Status decoded = DecodeShuffleSegment(*fetched, &runs);
          if (decoded.ok()) {
            shuffled = Status::OK();
            break;
          }
          // The stored bytes rotted past the frame checksums; re-fetching
          // the same bytes cannot help — escalate.
          decode_corruptions++;
          shuffled = decoded;
        } else {
          shuffled = fetched.status();
        }
      } else {
        shuffled = published;
      }
      if (spec_.net_fetch_local_fallback) {
        // Rung 2: the encoded segment in hand IS the committed spill.
        Status decoded = DecodeShuffleSegment(segment, &runs);
        if (decoded.ok()) {
          redundant++;
          shuffled = Status::OK();
          break;
        }
        shuffled = decoded;
      }
      // Rung 3: the committed attempt's fault draw was clean (it
      // committed), so re-running it reproduces the identical output.
      MapAttemptResult redo = map_attempt(m, committed_attempt);
      if (redo.crashed || !redo.contract.ok()) {
        shuffled = Status::Internal(
            "job '" + spec_.name + "': map task " + std::to_string(m) +
            " re-run for shuffle recovery did not commit");
        break;
      }
      reruns++;
      map_outputs[m] = std::move(redo.output);
      segment.clear();
      EncodeShuffleSegment(map_outputs[m], r, spec_.verify_integrity,
                           &segment);
    }
    const double latency = fetch_timer.ElapsedSeconds();
    {
      MutexLock lock(&net_mu);
      metrics.net_segments += published_count;
      metrics.net_fetches++;
      metrics.net_fetch_retries += stats.retries;
      metrics.net_redundant_fetches += redundant;
      metrics.net_map_reruns += reruns;
      metrics.net_bytes_pushed += stats.bytes_sent;
      metrics.net_bytes_fetched += stats.bytes_received;
      metrics.net_corruption_detected +=
          stats.corrupt_frames + decode_corruptions;
      metrics.net_fetch_latency.Record(latency);
    }
    if (!shuffled.ok()) {
      latch_status(Status::Unavailable(
          "job '" + spec_.name + "': shuffle segment m" + std::to_string(m) +
          " r" + std::to_string(r) +
          " unrecoverable after transport retries, local fallback, and map "
          "re-run: " +
          shuffled.ToString()));
      return;
    }
    fetched_slots[m][r] = std::move(runs);
  };

  // Map-task completion: run the phase continuation when this was the
  // last map task (BEFORE the final release, so quarantine accounting and
  // backup spawning precede the reduces it unblocks), then decrement
  // every partition's countdown, spawning each reduce task the moment its
  // inputs are complete. Under a transport the decrement fires on the
  // RECEIVED-AND-VERIFIED segment, not the local commit: the hand-off
  // (and its whole recovery ladder) completes before the release.
  auto finish_map_task = [&group, &maps_remaining, &on_maps_done,
                          &reduce_inputs_pending, &run_reduce_task,
                          &transport_shuffle, transport, &metrics,
                          &job_failed, num_reduce_tasks](size_t m) {
    // The committed attempt index, read BEFORE the phase continuation can
    // spawn a speculative backup that bumps this task's attempt
    // bookkeeping (rung 3 must re-run exactly the attempt that committed).
    const uint32_t committed_attempt =
        transport ? metrics.map_tasks[m].failed_attempts : 0;
    if (maps_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      on_maps_done();
    }
    for (size_t r = 0; r < num_reduce_tasks; ++r) {
      if (transport && !job_failed.load(std::memory_order_acquire)) {
        transport_shuffle(m, r, committed_attempt);
      }
      if (reduce_inputs_pending[r].fetch_sub(1, std::memory_order_acq_rel) ==
          1) {
        group.Spawn([&run_reduce_task, r] { run_reduce_task(r); });
      }
    }
  };

  // ---- Spawn the graph: map tasks now, reduce tasks as their inputs
  // commit, backups from the phase-completion continuations ----
  for (size_t m = 0; m < num_map_tasks; ++m) {
    group.Spawn([&run_chain, &map_attempt, &commit_map, &finish_map_task, m] {
      run_chain(TaskPhase::kMap, m, map_attempt, commit_map);
      finish_map_task(m);
    });
  }
  if (num_map_tasks == 0) {
    // An empty input still runs every reduce task (reducers may emit in
    // Teardown) — there is just no shuffle to wait for.
    on_maps_done();
    for (size_t r = 0; r < num_reduce_tasks; ++r) {
      group.Spawn([&run_reduce_task, r] { run_reduce_task(r); });
    }
  }

  // Wait drains the whole graph — including tasks the continuations
  // spawned mid-flight — and surfaces the first task exception as a
  // Status instead of std::terminate.
  Status tasks_status = group.Wait();
  // This job's segments are dead weight from here, success or failure
  // (pipelines run jobs sequentially, so the drop cannot race a reader).
  if (transport) transport->DropJob(spec_.name);
  FJ_RETURN_IF_ERROR(tasks_status);
  // All tasks are done: job_status is stable without the lock.
  FJ_RETURN_IF_ERROR(job_status);
  if (transport) {
    metrics.net_worker_losses =
        transport->worker_losses() - net_losses_before;
  }

  internal::SumJobTotals(spec_, input_integrity_bytes, &metrics);

  // ---- Output: atomic commit via temp-name + rename, so no observer can
  // ever read a partial file under the final name ----
  if (!spec_.output_file.empty()) {
    std::vector<std::string> all_lines;
    std::vector<uint64_t> all_checksums;
    size_t total = 0;
    for (const auto& part : reduce_outputs) total += part.size();
    all_lines.reserve(total);
    all_checksums.reserve(total);
    for (size_t r = 0; r < num_reduce_tasks; ++r) {
      std::move(reduce_outputs[r].begin(), reduce_outputs[r].end(),
                std::back_inserter(all_lines));
      all_checksums.insert(all_checksums.end(), reduce_checksums[r].begin(),
                           reduce_checksums[r].end());
    }
    const std::string tmp = spec_.output_file + ".__commit";
    if (dfs_->Exists(tmp)) FJ_RETURN_IF_ERROR(dfs_->DeleteFile(tmp));
    // The line checksums were computed by the reduce tasks.
    FJ_RETURN_IF_ERROR(
        dfs_->WriteFile(tmp, std::move(all_lines), std::move(all_checksums)));
    Status renamed = dfs_->RenameFile(tmp, spec_.output_file);
    if (!renamed.ok()) {
      (void)dfs_->DeleteFile(tmp);  // best effort; the rename error wins
      return renamed;
    }
    if (metrics.records_skipped > 0) {
      std::vector<std::string> bad_lines;
      bad_lines.reserve(metrics.records_skipped);
      for (auto& task_lines : quarantined) {
        std::move(task_lines.begin(), task_lines.end(),
                  std::back_inserter(bad_lines));
      }
      FJ_RETURN_IF_ERROR(
          dfs_->WriteFile(spec_.output_file + ".bad", std::move(bad_lines)));
    }
  }

  metrics.wall_seconds = job_timer.ElapsedSeconds();
  metrics.map_phase_wall_seconds = map_done_wall;
  metrics.reduce_phase_wall_seconds =
      std::max(0.0, reduce_done_wall - map_done_wall);
  metrics.runtime = executor->stats() - runtime_before;
  return metrics;
}

}  // namespace fj::mr
