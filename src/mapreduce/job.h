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
// Execution is layered like Hadoop's shuffle (DESIGN.md, "Shuffle
// architecture"): a map task's SortBuffer (sort_buffer.h) buffers its
// output against JobSpec::sort_buffer_bytes and spills it as sorted,
// combined runs; a reduce task's RunMerger (run_merger.h) k-way merges the
// partition's runs, ties broken by map-task-then-spill rank, and feeds
// Reduce one contiguous key group at a time.
//
// The engine has two halves (DESIGN.md, "Engine layering"). This header
// holds the typed work: the map and reduce attempt bodies, the task-graph
// countdown that releases each reduce task, and the typed callback the
// attempt ladder calls (run an attempt and keep its output). job.cc holds
// the engine's policy, compiled once for every (K, V): the job-spec
// checks, opening and verifying the inputs, the first-failure latch, the
// quarantine cap, the attempt ladder (retries and speculative backups),
// sealing a reduce attempt's output, and the atomic output commit.
//
// Fault tolerance (fault.h; DESIGN.md, "Fault tolerance and speculative
// execution"): every task runs as a sequence of attempts, each with its
// own TaskContext, counters, sort buffer or decoded runs, and output, so a
// crashed attempt is dropped wholesale. Crashed attempts are retried up
// to max_task_attempts; stragglers get one speculative backup whose first
// finisher wins the COST commit only — attempts are deterministic, so the
// published bytes are never re-pointed and reduce tasks may consume the
// shuffle while map backups still run. Committed metrics and counters
// describe exactly one clean attempt.
//
// Data integrity (integrity.h, JobSpec::verify_integrity): run blocks
// carry write-side checksums that VerifyRuns re-checks at map-attempt
// commit and at the reduce side's run-merge read; job.cc verifies the
// inputs and the reduce output. A mismatch — e.g. an injected
// CorruptRecord fault, which really flips a byte of a run block — crashes
// the DETECTING attempt, so the retry loop re-runs the producer and a
// recoverable corruption plan still yields byte-identical output.
//
// Execution (common/executor.h; DESIGN.md, "Parallel runtime") is a task
// graph on a persistent work-stealing executor: a map task's commit
// publishes its runs into per-(map-task x partition) slots and counts
// down each partition's pending inputs; the decrement that hits zero
// spawns that reduce task. Slots are indexed by map task, so runs are
// merged in map-task-then-spill order whatever order commits land in.
//
// Determinism: runs are internally in emit order (stable sort) and the
// merge breaks ties toward earlier runs, so output is byte-identical to
// the unbounded path (sort_buffer_bytes == 0) and, because attempts
// re-execute deterministically, under any recoverable fault plan and any
// thread count (committed counters and task metrics too; only wall-time
// fields vary). Reduce output lines are written to the job's output file
// in the Dfs, concatenated in reduce-task order.
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
#include "mapreduce/job_spec.h"
#include "mapreduce/metrics.h"
#include "mapreduce/run_merger.h"
#include "mapreduce/sort_buffer.h"
#include "mapreduce/task_context.h"

namespace fj::mr {

// The engine's type-independent half, compiled once in job.cc.
namespace internal {

/// Copies a finished task's scratch I/O into the attempt's counters.
void AccountScratch(const TaskContext& ctx, CounterSet* counters);

/// The attempt's cost: measured wall time plus its simulated scratch I/O,
/// slowed down by any straggler fault.
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

/// The attempt ladder's typed callback: runs attempt `attempt` of task
/// `t` and hands the result to `sink`, which tallies it and returns true
/// when the attempt commits — the callback then keeps its typed output
/// as the task's.
using AttemptSink = std::function<bool(AttemptResult&)>;
using AttemptFn =
    std::function<void(size_t t, uint32_t attempt, const AttemptSink& sink)>;

/// What a reduce attempt commits: its output lines and the Dfs
/// LineChecksum of each.
struct ReduceOutput {
  std::vector<std::string> lines;
  std::vector<uint64_t> line_checksums;
};

struct ReduceAttemptResult : AttemptResult {
  ReduceOutput output;
};

/// Injected CorruptRecord fault: really flips one byte of one of the
/// attempt's run blocks, AFTER the write-side checksums were computed —
/// exactly the window HDFS block checksums guard. Prefers a run matching
/// the fault's target (on-disk spill vs. in-memory map output), falling
/// back to any run with records so a kSpill fault still bites when the job
/// never spilled. Bit rot hits the stored representation, compressed or
/// not, and must still be caught at the read boundaries.
void CorruptMapOutput(MapTaskOutput* out, const AttemptFault& fault);

/// The integrity read boundary, at map-attempt commit and at the reduce
/// side's run-merge read (HDFS clients verify every block read): each run
/// carrying records is re-checksummed against its write-side checksum. A
/// mismatch converts the corruption into a transient failure: the attempt
/// crashes and the retry loop re-runs the producer.
void VerifyRuns(const std::vector<const SortedRun*>& runs,
                AttemptResult* res);

/// The OutputEmitter of one reduce attempt: meters and collects its lines
/// into `res->output`, hashing the stream for Seal under verification.
class LineCollector final : public OutputEmitter {
 public:
  LineCollector(ReduceAttemptResult* res, bool verify)
      : res_(res), verify_(verify) {}
  void Emit(std::string line) override;

  /// Seals a clean attempt's output at its commit: applies an injected
  /// kReduceOutput fault, hashes every line for the Dfs write, and with
  /// verification checks their fold against the stream hash — a mismatch
  /// is a counted detection that crashes the attempt.
  void Seal(const AttemptFault& fault);

 private:
  ReduceAttemptResult* res_;
  bool verify_;
  uint64_t stream_hash_ = kFnvOffsetBasis;
};

/// The type-independent state and policy of one Job::Run. Job<K, V> keeps
/// the typed state (map outputs, the shuffle slot board), runs the typed
/// attempt bodies, and drives this from its task graph.
class JobRun {
 public:
  /// What Open checks of the typed hooks.
  struct Hooks {
    bool mapper = false;
    bool reducer = false;
    /// Refused: the sort buffer groups combiner input in a hash table.
    bool combiner_with_custom_order = false;
  };

  /// `spec` must outlive the run.
  JobRun(Dfs* dfs, const JobSpecBase& spec);

  /// Checks the spec, then opens the inputs: splits them into map tasks,
  /// verifies them against their Dfs hashes under verify_integrity, and
  /// picks the host executor. A failure is the job's structured Status.
  Status Open(const Hooks& hooks);

  size_t num_map_tasks() const { return splits_.size(); }
  const InputSplit& split(size_t m) const { return splits_[m]; }
  const std::vector<std::string>& lines(size_t m) const {
    return *file_lines_[splits_[m].file_index];
  }
  Executor& executor() const { return *executor_; }
  JobMetrics& metrics() { return metrics_; }

  /// The first-failure latch: the first latched Status is the job's;
  /// `failed()` is the lock-free check task bodies poll.
  void Fail(const Status& status);
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// Where a committed map attempt's quarantined lines and a committed
  /// reduce attempt's output go.
  std::vector<std::string>& quarantined(size_t m) { return quarantined_[m]; }
  ReduceOutput& output(size_t r) { return outputs_[r]; }

  /// The retry chain of task `t` of `phase`: attempts run one after
  /// another until one commits — its metrics and counters become the
  /// task's; failed attempts leave only their cost — or the budget is
  /// exhausted, which fails the job. A contract violation fails it at once:
  /// attempts are deterministic, so a retry would find it again.
  void RunChain(TaskPhase phase, size_t t, const AttemptFn& attempt);

  /// Completion of each phase, run by the worker that finished its last
  /// primary task: stamps the phase wall and spawns the phase's
  /// speculative backups onto `group`. The map phase first applies the
  /// quarantine cap (DataLoss when exceeded, and no backups), before the
  /// last reduce tasks are released.
  void MapsDone(TaskGroup* group, const AttemptFn& attempt);
  void ReducesDone(TaskGroup* group, const AttemptFn& attempt);

  /// Ends the run once the task graph drained (`tasks` is its Wait status):
  /// the first failure, else the totals after the atomic output commit.
  Result<JobMetrics> Finish(const Status& tasks);

 private:
  /// Stragglers of `phase` get one backup attempt each; the first finisher
  /// (by simulated time) wins the COST commit. A backup never re-points
  /// the committed output: attempts are deterministic, so its bytes,
  /// counters and quarantined lines equal the primary's — which is what
  /// lets released reduce tasks consume the shuffle while map backups run.
  void SpawnBackups(TaskPhase phase, TaskGroup* group,
                    const AttemptFn& attempt);
  Status CommitOutput();

  Dfs* dfs_;
  const JobSpecBase& spec_;
  WallTimer timer_;
  JobMetrics metrics_;

  std::vector<InputSplit> splits_;
  // Pointers stay valid: Dfs never moves a file's line storage.
  std::vector<const std::vector<std::string>*> file_lines_;
  uint64_t input_integrity_bytes_ = 0;
  std::shared_ptr<Executor> executor_;
  ExecutorStats runtime_before_;

  // Held across nothing but the status write, always acquired from task
  // bodies that hold no lock.
  Mutex failure_mu_{"job.failure", lock_rank::kJobState};
  Status status_ FJ_GUARDED_BY(failure_mu_);
  std::atomic<bool> failed_{false};

  // Each committed attempt's counters: map tasks, then reduce tasks, in
  // task order. Every task writes only its own slot; Finish merges them.
  std::vector<CounterSet> task_counters_;
  std::vector<std::vector<std::string>> quarantined_;
  std::vector<ReduceOutput> outputs_;
  // Stamped by whichever worker completed the phase; read in Finish,
  // after the task group's Wait synchronized.
  double map_done_wall_ = 0;
  double reduce_done_wall_ = 0;
};

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

  /// Everything one attempt produces, scoped to the attempt so a crash
  /// discards it wholesale.
  struct MapAttemptResult : internal::AttemptResult {
    MapTaskOutput output;
    /// Malformed input lines the attempt quarantined (committed with it).
    std::vector<std::string> quarantined;
  };

  MapAttemptResult RunMapAttempt(const InputSplit& split,
                                 const std::vector<std::string>& lines,
                                 const SpecOrdering<K, V>& ordering,
                                 size_t task_id, uint32_t attempt,
                                 const AttemptFault& fault);

  /// `decode_scratch` is the executing worker's reusable buffer for the
  /// attempt's decoded runs; every attempt overwrites it in full, so reuse
  /// across attempts (and across tasks on the same worker) cannot leak
  /// state between them.
  internal::ReduceAttemptResult RunReduceAttempt(
      const std::vector<const SortedRun*>& partition_runs,
      const SpecOrdering<K, V>& ordering, size_t merge_factor, size_t task_id,
      uint32_t attempt, const AttemptFault& fault,
      std::vector<MergeRun<K, V>>* decode_scratch);

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
  SortBuffer<K, V> buffer(&spec_, &ordering, &res.metrics, &res.output,
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
  }
  if (!res.crashed && res.contract.ok()) {
    if (fault.corrupt_target == CorruptTarget::kMapOutput ||
        fault.corrupt_target == CorruptTarget::kSpill) {
      internal::CorruptMapOutput(&res.output, fault);
    }
    if (spec_.verify_integrity) {
      std::vector<const SortedRun*> runs;
      for (const auto& spill : res.output.spills) {
        for (const SortedRun& run : spill) runs.push_back(&run);
      }
      internal::VerifyRuns(runs, &res);
    }
  }
  res.metrics.seconds = internal::AttemptSeconds(timer, ctx, fault);
  return res;
}

template <typename K, typename V>
internal::ReduceAttemptResult Job<K, V>::RunReduceAttempt(
    const std::vector<const SortedRun*>& partition_runs,
    const SpecOrdering<K, V>& ordering, size_t merge_factor, size_t task_id,
    uint32_t attempt, const AttemptFault& fault,
    std::vector<MergeRun<K, V>>* decode_scratch) {
  internal::ReduceAttemptResult res;
  WallTimer timer;
  TaskContext ctx(task_id, attempt, &res.counters);
  ctx.set_fault(fault);
  // The attempt body; its early returns all end at the one exit below.
  [&] {
    // Every check reads the published blocks before anything decodes
    // them, like an HDFS client checksumming a compressed block on read.
    if (spec_.verify_integrity) {
      internal::VerifyRuns(partition_runs, &res);
      if (res.crashed) return;
    }

    // The attempt decodes its own pairs from the published blocks, which
    // are only ever read, so a retry or a backup finds them pristine. The
    // decoded runs land in the worker's reusable scratch (every field is
    // overwritten, so nothing of a previous attempt survives, but pair
    // vector capacity is recycled). A block that fails to decode
    // (truncated varint, bad codec frame) crashes the attempt with a
    // counted detection — a transient failure under the retry budget,
    // never UB and never silently-wrong pairs.
    std::vector<MergeRun<K, V>>& decoded = *decode_scratch;
    decoded.resize(partition_runs.size());
    std::vector<MergeRun<K, V>*> runs;
    runs.reserve(partition_runs.size());
    CodecScratch codec_scratch;
    for (size_t i = 0; i < partition_runs.size(); ++i) {
      const SortedRun& published = *partition_runs[i];
      MergeRun<K, V>& run = decoded[i];
      if (!DecodeRunBlock(published.encoded, &codec_scratch, &run.pairs)
               .ok()) {
        res.metrics.corruption_detected++;
        res.crashed = true;
        return;
      }
      run.bytes = published.encoded.size();
      res.metrics.codec_encoded_bytes += run.bytes;
      res.metrics.codec_logical_bytes += published.logical_bytes;
      res.metrics.input_records += run.pairs.size();
      res.metrics.input_bytes += run.bytes;
      runs.push_back(&run);
    }

    // Reduce-side contract checker: verifies group contiguity, merge
    // order, and that user code leaves group keys untouched mid-call.
    std::optional<GroupContractChecker<K, SpecOrdering<K, V>>> checker;
    if (spec_.check_contracts) checker.emplace(&ordering, spec_.name);

    internal::LineCollector out(&res, spec_.verify_integrity);
    auto reducer = spec_.reducer_factory();
    reducer->Setup(&ctx);
    RunMerger<K, V> merger(&ordering, std::move(runs), merge_factor,
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
      if (!res.contract.ok()) return;
    }
    if (!res.crashed && ctx.CrashDue()) res.crashed = true;
    if (res.crashed) return;
    reducer->Teardown(&out, &ctx);
    internal::AccountScratch(ctx, &res.counters);
    out.Seal(fault);
  }();
  res.metrics.seconds = internal::AttemptSeconds(timer, ctx, fault);
  return res;
}

template <typename K, typename V>
Result<JobMetrics> Job<K, V>::Run() {
  internal::JobRun run(dfs_, spec_);
  FJ_RETURN_IF_ERROR(run.Open(
      {.mapper = static_cast<bool>(spec_.mapper_factory),
       .reducer = static_cast<bool>(spec_.reducer_factory),
       .combiner_with_custom_order =
           spec_.combiner && (spec_.sort_less || spec_.group_equal)}));

  const size_t num_map_tasks = run.num_map_tasks();
  const size_t num_reduce_tasks = spec_.num_reduce_tasks;
  const SpecOrdering<K, V> ordering(&spec_);
  const FaultInjector injector(spec_.fault_plan.get(), spec_.name);
  std::vector<MapTaskOutput> map_outputs(num_map_tasks);

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
  std::vector<std::vector<const SortedRun*>> partition_runs(num_reduce_tasks);
  std::atomic<size_t> maps_remaining{num_map_tasks};
  std::atomic<size_t> reduces_remaining{num_reduce_tasks};

  // Per-worker reduce-side decode scratch (see RunReduceAttempt). The
  // extra slot serves a non-worker caller — impossible today, but it
  // keeps the indexing total.
  Executor& executor = run.executor();
  std::vector<std::vector<MergeRun<K, V>>> reduce_scratch(
      executor.num_workers() + 1);
  auto worker_scratch = [&reduce_scratch, &executor] {
    const size_t w = executor.CurrentWorkerIndex();
    return &reduce_scratch[w == Executor::kNotAWorker
                               ? reduce_scratch.size() - 1
                               : w];
  };

  TaskGroup group(&executor);

  // ---- Task bodies ----
  // One attempt of each phase's task t, as numbered by the attempt ladder
  // (job.cc), which reads the result through `sink`; a committing attempt's
  // typed output becomes the task's. Backups never commit output.
  const internal::AttemptFn map_attempt =
      [this, &ordering, &injector, &map_outputs, &run](
          size_t m, uint32_t attempt, const internal::AttemptSink& sink) {
        MapAttemptResult res = RunMapAttempt(
            run.split(m), run.lines(m), ordering, m, attempt,
            injector.FaultFor(TaskPhase::kMap, m, attempt));
        if (!sink(res)) return;
        map_outputs[m] = std::move(res.output);
        run.quarantined(m) = std::move(res.quarantined);
      };
  const internal::AttemptFn reduce_attempt =
      [this, merge_factor, &partition_runs, &ordering, &injector,
       &worker_scratch,
       &run](size_t r, uint32_t attempt, const internal::AttemptSink& sink) {
        internal::ReduceAttemptResult res = RunReduceAttempt(
            partition_runs[r], ordering, merge_factor, r, attempt,
            injector.FaultFor(TaskPhase::kReduce, r, attempt),
            worker_scratch());
        if (sink(res)) run.output(r) = std::move(res.output);
      };

  // One reduce task: a streaming k-way merge over the partition's
  // committed runs, under the retry chain.
  auto run_reduce_task = [&reduce_attempt, &map_outputs, &partition_runs,
                          &run, &group, &reduces_remaining,
                          num_map_tasks](size_t r) {
    if (!run.failed()) {
      // This partition's runs from every map task, in map-task-then-spill
      // order — the rank order the merger's tie-break relies on. The slot
      // board is indexed by map task, so commit ARRIVAL order cannot
      // perturb it.
      std::vector<const SortedRun*>& runs = partition_runs[r];
      for (size_t m = 0; m < num_map_tasks; ++m) {
        for (auto& spill : map_outputs[m].spills) {
          if (spill[r].HasRecords()) runs.push_back(&spill[r]);
        }
      }
      run.RunChain(TaskPhase::kReduce, r, reduce_attempt);
    }
    if (reduces_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      run.ReducesDone(&group, reduce_attempt);
    }
  };

  // Map-task completion: run the phase continuation when this was the
  // last map task (BEFORE the final release, so quarantine accounting and
  // backup spawning precede the reduces it unblocks), then decrement
  // every partition's countdown, spawning each reduce task the moment its
  // inputs are complete.
  auto finish_map_task = [&group, &maps_remaining, &map_attempt,
                          &reduce_inputs_pending, &run_reduce_task, &run,
                          num_reduce_tasks] {
    if (maps_remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      run.MapsDone(&group, map_attempt);
    }
    for (size_t r = 0; r < num_reduce_tasks; ++r) {
      if (reduce_inputs_pending[r].fetch_sub(1, std::memory_order_acq_rel) ==
          1) {
        group.Spawn([&run_reduce_task, r] { run_reduce_task(r); });
      }
    }
  };

  // ---- Spawn the graph: map tasks now, reduce tasks as their inputs
  // commit, backups from the phase-completion continuations ----
  for (size_t m = 0; m < num_map_tasks; ++m) {
    group.Spawn([&run, &map_attempt, &finish_map_task, m] {
      run.RunChain(TaskPhase::kMap, m, map_attempt);
      finish_map_task();
    });
  }
  if (num_map_tasks == 0) {
    // An empty input still runs every reduce task (reducers may emit in
    // Teardown) — there is just no shuffle to wait for.
    run.MapsDone(&group, map_attempt);
    for (size_t r = 0; r < num_reduce_tasks; ++r) {
      group.Spawn([&run_reduce_task, r] { run_reduce_task(r); });
    }
  }

  // Wait drains the whole graph — including tasks the continuations
  // spawned mid-flight — and surfaces the first task exception as a
  // Status instead of std::terminate.
  return run.Finish(group.Wait());
}

}  // namespace fj::mr
