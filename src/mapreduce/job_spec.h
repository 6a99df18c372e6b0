// Job description layer: the user-facing MapReduce contract.
//
// This header holds everything a job author touches — the Emitter /
// Mapper / Reducer hooks, the functional adapters, EngineOptions (how the
// engine runs a job: threads, shuffle budget, fault tolerance, integrity,
// format), and JobSpec, the full declarative description of one
// job (inputs, task counts, comparators, combiner, plus its
// EngineOptions). The execution machinery lives
// in separate layers: sort_buffer.h (map-side buffering and spilling),
// run_merger.h (reduce-side k-way merging), and job.h (the engine that
// wires them together).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/executor.h"
#include "common/status.h"
#include "mapreduce/fault.h"
#include "mapreduce/input.h"
#include "mapreduce/key_traits.h"
#include "mapreduce/record_format.h"
#include "mapreduce/task_context.h"

namespace fj::mr {

/// Default for EngineOptions::check_contracts: the FJ_CHECK_CONTRACTS env
/// var if set, else on in debug builds and off under NDEBUG (defined in
/// contract.cc; declared here so the default needs no heavy include).
bool ContractChecksDefaultOn();

/// Receives intermediate (key, value) pairs from map or combine functions.
template <typename K, typename V>
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void Emit(K key, V value) = 0;
};

/// Receives final output lines from reduce functions.
class OutputEmitter {
 public:
  virtual ~OutputEmitter() = default;
  virtual void Emit(std::string line) = 0;
};

/// User map function. One instance is created per map task.
template <typename K, typename V>
class Mapper {
 public:
  virtual ~Mapper() = default;
  /// Called once before the first record (Hadoop "configure").
  virtual void Setup(TaskContext* ctx) { (void)ctx; }
  virtual void Map(const InputRecord& record, Emitter<K, V>* out,
                   TaskContext* ctx) = 0;
  /// Called once after the last record (Hadoop "close").
  virtual void Teardown(Emitter<K, V>* out, TaskContext* ctx) {
    (void)out;
    (void)ctx;
  }
};

/// User reduce function. One instance is created per reduce task.
///
/// `group` is the run of sorted (key, value) pairs that compare equal under
/// the job's group comparator. Individual keys within the group may differ
/// in secondary-sort fields — exactly Hadoop's value-iteration behaviour
/// under a custom grouping comparator, which the PK kernel relies on to see
/// projections in increasing length order.
template <typename K, typename V>
class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual void Setup(TaskContext* ctx) { (void)ctx; }
  virtual void Reduce(const K& key, std::span<const std::pair<K, V>> group,
                      OutputEmitter* out, TaskContext* ctx) = 0;
  virtual void Teardown(OutputEmitter* out, TaskContext* ctx) {
    (void)out;
    (void)ctx;
  }
};

/// Functional adapters for small jobs.
template <typename K, typename V>
class LambdaMapper : public Mapper<K, V> {
 public:
  using MapFn =
      std::function<void(const InputRecord&, Emitter<K, V>*, TaskContext*)>;
  explicit LambdaMapper(MapFn fn) : fn_(std::move(fn)) {}
  void Map(const InputRecord& record, Emitter<K, V>* out,
           TaskContext* ctx) override {
    fn_(record, out, ctx);
  }

 private:
  MapFn fn_;
};

template <typename K, typename V>
class LambdaReducer : public Reducer<K, V> {
 public:
  using ReduceFn = std::function<void(
      const K&, std::span<const std::pair<K, V>>, OutputEmitter*, TaskContext*)>;
  explicit LambdaReducer(ReduceFn fn) : fn_(std::move(fn)) {}
  void Reduce(const K& key, std::span<const std::pair<K, V>> group,
              OutputEmitter* out, TaskContext* ctx) override {
    fn_(key, group, out, ctx);
  }

 private:
  ReduceFn fn_;
};

/// How the engine runs a job. JobSpec and join::JoinConfig both derive
/// from it, so a pipeline builds each job's spec from its own settings in
/// one statement: `JobSpec<K, V> spec{config.engine()}`. A job that
/// succeeds writes the same output bytes under any of these settings, a
/// fault plan included as long as it is recoverable (fault.h).
struct EngineOptions {
  /// Host threads used to execute tasks (physical concurrency only; the
  /// simulated cluster size lives in ClusterConfig, not here). 0 = auto:
  /// resolve to std::thread::hardware_concurrency(); at most
  /// Executor::kMaxWorkers. Ignored when `executor` is set — the host
  /// executor's worker count rules.
  size_t local_threads = 1;

  /// Host executor running the tasks. Shared across the jobs of a
  /// pipeline so workers persist (warm caches, no per-phase pool
  /// construction); the join drivers create one at pipeline entry when a
  /// JoinConfig leaves it unset, and bench sweeps share one across runs.
  /// nullptr on a JobSpec = the job creates a private executor with
  /// local_threads workers for the duration of Run().
  std::shared_ptr<Executor> executor;

  /// Map-side sort buffer budget in bytes — the analogue of Hadoop's
  /// io.sort.mb. Emitted pairs accumulate in a per-task SortBuffer; when
  /// their estimated serialized size would exceed this budget, the buffer
  /// is sorted, combined, and spilled to the task's local scratch as one
  /// sorted run per reduce partition. The reduce side then k-way merges
  /// the runs instead of re-sorting a materialized partition. 0 =
  /// unbounded: the whole map output becomes a single in-memory run and no
  /// spill I/O is charged (the legacy behaviour). Output is byte-identical
  /// either way.
  uint64_t sort_buffer_bytes = 0;

  /// Maximum attempts per task before the job fails — the analogue of
  /// Hadoop's mapred.map.max.attempts / mapred.reduce.max.attempts (both
  /// default 4 there too). A task whose every attempt crashes fails the
  /// whole job with a structured Status; no partial output is written.
  uint32_t max_task_attempts = 4;

  /// Launch speculative backup attempts for straggling tasks (Hadoop's
  /// mapred.*.tasks.speculative.execution). After a phase's tasks commit,
  /// any task whose cost exceeds speculation_slowdown_factor x the phase
  /// median is re-executed as a backup attempt; the first finisher (by
  /// simulated completion time) wins the output commit and the loser's
  /// cost is recorded as wasted work.
  bool speculative_execution = false;

  /// Straggler threshold for speculation, as a multiple of the phase's
  /// median committed task cost. Must be > 1.
  double speculation_slowdown_factor = 3.0;

  /// Deterministic fault plan injected into the task attempts; nullptr =
  /// fault-free. Shared so one plan can be handed to every job of a
  /// pipeline. With any recoverable plan the job output is byte-identical
  /// to the fault-free run (see mapreduce/fault.h).
  std::shared_ptr<const FaultPlan> fault_plan;

  /// End-to-end integrity verification — the HDFS checksum analogue. When
  /// on: job inputs are verified against their Dfs hashes before the map
  /// phase; every sorted run is checksummed at spill time and re-verified
  /// at map-attempt commit and again at the reduce side's run-merge read;
  /// reduce output lines are checksummed at emit and re-verified at the
  /// attempt's commit. Any mismatch crashes the detecting attempt — a
  /// transient failure retried under max_task_attempts — so a recoverable
  /// CorruptRecord fault plan still yields byte-identical output.
  /// Verified bytes are metered (TaskMetrics::integrity_bytes_verified);
  /// the hashing runs inside the timed attempts (input verification
  /// excepted), so the cluster model prices it through the task makespans.
  bool verify_integrity = false;

  static constexpr uint64_t kUnlimitedSkippedRecords = ~0ULL;
  /// Cap on malformed input records a job may quarantine (see
  /// TaskContext::QuarantineRecord): quarantined lines land in
  /// `<output_file>.bad` instead of aborting the job, but when their total
  /// exceeds this cap the job fails with DataLoss — mass corruption should
  /// not silently shrink the input.
  uint64_t max_skipped_records = kUnlimitedSkippedRecords;

  /// Contract checking (mapreduce/contract.h): verify the user-supplied
  /// sort/group comparators against the strict-weak-ordering axioms, the
  /// partitioner against the group comparator (group-equal keys must share
  /// a partition; partition ids in range), the combiner's algebraic laws
  /// (associativity, order-insensitivity, idempotence) on sampled key
  /// groups, and key immutability across reduce calls. A violation fails
  /// the job with a structured FailedPrecondition Status naming the
  /// offending key pair — never a wrong answer. Checks are sampled (see
  /// contract_sample_every), metered as TaskMetrics::contract_checks, and
  /// run inline, so their time is inside the attempts' measured seconds.
  /// Default: on in debug builds and CI, off under NDEBUG (overridable via
  /// the FJ_CHECK_CONTRACTS env var).
  bool check_contracts = ContractChecksDefaultOn();

  /// Every kth emitted key enters the contract checker's axiom pool
  /// (1 = every key). Must be >= 1 when check_contracts is on.
  uint32_t contract_sample_every = 16;

  /// Inert: every spill run is a run block (record_format.h), and nothing
  /// reads this field. It remains only because the end-to-end benchmark
  /// (perfbench/batch.cc) still assigns it.
  RecordFormat record_format = RecordFormat::kBinary;

  /// Block codec applied per spill-run block. Off by default: spilled runs
  /// stay in memory, so compression saves memory, not I/O, and costs codec
  /// CPU inside the attempts' measured seconds. Codec bytes are metered
  /// per task. Job output is byte-identical across codecs.
  BlockCodec block_codec = BlockCodec::kNone;

  const EngineOptions& engine() const { return *this; }

  /// InvalidArgument naming the first out-of-range setting (job.cc).
  Status Validate() const;
};

/// The part of a job's description that does not depend on its key and
/// value types: name, inputs and output, task counts, plus the
/// EngineOptions it runs under. What the engine's type-independent half
/// (job.cc) reads.
struct JobSpecBase : EngineOptions {
  std::string name = "job";

  std::vector<std::string> input_files;
  std::string output_file;

  /// Target number of map tasks; 0 means one split per input file.
  size_t num_map_tasks = 0;
  size_t num_reduce_tasks = 1;
};

/// Full description of one MapReduce job: JobSpecBase plus the user hooks
/// and comparators.
template <typename K, typename V>
struct JobSpec : JobSpecBase {
  std::function<std::unique_ptr<Mapper<K, V>>()> mapper_factory;
  std::function<std::unique_ptr<Reducer<K, V>>()> reducer_factory;

  /// Optional local aggregation of map output before the shuffle. Receives
  /// one key's values at a time, in emit order, and emits replacement
  /// pairs. With spilling enabled the combiner runs once per spill
  /// (exactly Hadoop's behaviour), so it must be algebraic: feeding its
  /// own output back through it must not change the reduce result. The
  /// sort buffer groups its input by key in a hash table, so a job with a
  /// combiner must leave sort_less and group_equal unset (Job::Run
  /// rejects it otherwise).
  std::function<void(const K&, std::vector<V>&&, Emitter<K, V>*)> combiner;

  /// Partition function; nullptr = hash(key) % num_reduce_tasks.
  std::function<size_t(const K&, size_t num_partitions)> partitioner;

  /// Sort comparator; nullptr = std::less<K>. Must be a strict weak order.
  std::function<bool(const K&, const K&)> sort_less;

  /// Group comparator; nullptr = equality under sort_less. Keys equal under
  /// group_equal MUST be contiguous under sort_less.
  std::function<bool(const K&, const K&)> group_equal;
};

/// The job's resolved key ordering: comparators and partitioner with the
/// spec's nullptr defaults filled in. Shared by the map-side SortBuffer
/// and the reduce-side RunMerger so both layers agree on one order.
template <typename K, typename V>
class SpecOrdering {
 public:
  explicit SpecOrdering(const JobSpec<K, V>* spec) : spec_(spec) {}

  bool SortLess(const K& a, const K& b) const {
    if (spec_->sort_less) return spec_->sort_less(a, b);
    return a < b;
  }

  bool GroupEqual(const K& a, const K& b) const {
    if (spec_->group_equal) return spec_->group_equal(a, b);
    if (spec_->sort_less) return !spec_->sort_less(a, b) && !spec_->sort_less(b, a);
    return !(a < b) && !(b < a);
  }

  size_t PartitionOf(const K& key) const {
    return spec_->partitioner
               ? spec_->partitioner(key, spec_->num_reduce_tasks)
               : KeyHashOf(key) % spec_->num_reduce_tasks;
  }

 private:
  const JobSpec<K, V>* spec_;
};

}  // namespace fj::mr
