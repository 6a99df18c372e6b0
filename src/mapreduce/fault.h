// Deterministic fault injection for the MapReduce engine.
//
// Hadoop's execution model assumes tasks fail: attempts crash mid-split,
// nodes slow down, and the framework re-executes deterministically until
// the job either completes or a task exhausts its attempt budget. This
// module makes those behaviours reproducible on the local engine: a
// FaultPlan describes *which* (phase, task, attempt) coordinates misbehave
// and *how* (crash after k records, run slowed down), and a FaultInjector
// resolves the plan for one job. Faults flow into task execution through
// TaskContext (task_context.h) — mappers and reducers stay untouched.
//
// Two layers compose:
//   - targeted FaultSpecs pin an exact (phase, task, attempt-range),
//     which the unit tests use to script crash/retry/speculation stories;
//   - a probabilistic layer hashes (seed, job, phase, task, attempt) to a
//     deterministic uniform draw, so "10% of attempts crash" reproduces
//     bit-for-bit across runs and thread counts.
//
// Recoverability: a plan whose every crash stops firing before
// JobSpec::max_task_attempts is *recoverable* — the engine's retry layer
// re-executes each faulted task and, because attempts are deterministic and
// attempt-scoped, the job output is byte-identical to the fault-free run.
// A plan with a permanent crash fails the job with a structured Status.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fj::mr {

/// Which half of a MapReduce job a task belongs to.
enum class TaskPhase { kMap, kReduce };

const char* TaskPhaseName(TaskPhase phase);

/// Where a CorruptRecord fault flips its byte. Corruption is a *real*
/// mutation of the attempt's data (see integrity.h): with
/// JobSpec::verify_integrity on, the checksum layer detects it at the
/// producing attempt's commit and converts it into a transient task failure
/// (a re-run under the max_task_attempts budget); with verification off the
/// corrupted bytes flow silently downstream — the failure mode HDFS block
/// checksums exist to prevent.
enum class CorruptTarget {
  kNone = 0,
  kMapOutput,     ///< a byte of one of the map attempt's run blocks
  kReduceOutput,  ///< a line of the reduce attempt's output
};

/// The resolved disturbance applied to one task attempt. The default value
/// is "no fault": never crashes, runs at full speed.
struct AttemptFault {
  static constexpr uint64_t kNoCrash = ~0ULL;

  /// The attempt crashes once it has processed this many records (map:
  /// input records; reduce: key groups). kNoCrash = runs to completion.
  /// A value at or above the attempt's record count never fires.
  uint64_t crash_after_records = kNoCrash;

  /// Straggler factor multiplied into the attempt's cost (measured wall
  /// time + charged seconds). 1.0 = full speed.
  double slowdown = 1.0;

  /// Absolute simulated seconds added to the attempt's cost — a straggler
  /// charge that dominates measurement noise, which keeps speculation
  /// tests deterministic on microsecond-scale local tasks.
  double extra_seconds = 0.0;

  /// Corrupt one record of the attempt's output at this location (kNone =
  /// no corruption). corrupt_salt picks the run/record/bit
  /// deterministically.
  CorruptTarget corrupt_target = CorruptTarget::kNone;
  uint64_t corrupt_salt = 0;

  bool crashes() const { return crash_after_records != kNoCrash; }
  bool corrupts() const { return corrupt_target != CorruptTarget::kNone; }
  bool any() const {
    return crashes() || corrupts() || slowdown != 1.0 || extra_seconds != 0.0;
  }
};

/// One scripted fault: applies to attempts [first_attempt,
/// first_attempt + failing_attempts) of (phase, task_id) in every job whose
/// name contains job_substring.
struct FaultSpec {
  static constexpr uint32_t kAllAttempts = ~0u;

  TaskPhase phase = TaskPhase::kMap;
  size_t task_id = 0;

  /// First attempt the fault applies to (0 = the original attempt; 1 = the
  /// first retry or a speculative backup).
  uint32_t first_attempt = 0;
  /// Number of consecutive attempts affected. 1 models a transient fault;
  /// kAllAttempts a permanent one (the task can never succeed).
  uint32_t failing_attempts = 1;

  /// Crash after this many records; AttemptFault::kNoCrash for a
  /// straggler-only spec.
  uint64_t crash_after_records = AttemptFault::kNoCrash;

  /// Straggler behaviour (see AttemptFault).
  double slowdown = 1.0;
  double extra_seconds = 0.0;

  /// CorruptRecord behaviour: flip a byte of the attempt's output at this
  /// location (kNone = no corruption). The salt is folded with the
  /// (job, phase, task, attempt) coordinate so each affected attempt
  /// corrupts a deterministic but distinct record.
  CorruptTarget corrupt_target = CorruptTarget::kNone;
  uint64_t corrupt_salt = 0;

  /// Empty matches every job; otherwise the job's name must contain this
  /// substring (e.g. "stage2" to fault only the kernel job of a pipeline).
  std::string job_substring;

  bool AppliesTo(TaskPhase p, size_t task, uint32_t attempt,
                 const std::string& job_name) const;
};

/// A complete description of the faults injected into a run: scripted
/// specs plus a seed-driven probabilistic layer. Plans are engine-agnostic
/// data — the same plan can be handed to every job of a pipeline.
struct FaultPlan {
  std::vector<FaultSpec> faults;

  /// Seed for the probabilistic layer. Every (job, phase, task, attempt)
  /// coordinate is hashed together with the seed into a uniform draw, so
  /// the same plan produces the same faults regardless of thread count or
  /// execution order.
  uint64_t seed = 0;

  /// Per-attempt crash probability. Drawn crashes fire after a
  /// hash-derived record count in [0, crash_after_records].
  double crash_probability = 0.0;
  uint64_t crash_after_records = 8;
  /// Random crashes only hit attempts below this bound — keeping the
  /// probabilistic layer transient (recoverable) as long as the bound is
  /// below JobSpec::max_task_attempts.
  uint32_t crash_failing_attempts = 2;

  /// Per-task straggler probability (first attempt only — a backup or
  /// retry lands on a "different node" and runs at full speed).
  double straggler_probability = 0.0;
  double straggler_slowdown = 4.0;
  double straggler_extra_seconds = 0.0;

  /// Per-attempt CorruptRecord probability. Drawn corruptions pick the
  /// phase's target (map output for map attempts, reduce output for
  /// reduce attempts) and a hash-derived salt.
  double corrupt_probability = 0.0;
  /// Random corruption only hits attempts below this bound — transient as
  /// long as the bound is below JobSpec::max_task_attempts AND integrity
  /// verification is on to convert detections into retries.
  uint32_t corrupt_failing_attempts = 2;

  /// True when the plan injects nothing at all.
  bool Empty() const;

  /// True when every fault the plan can produce stops firing before
  /// `max_task_attempts` — i.e. the retry layer is guaranteed to recover
  /// and the job output is byte-identical to the fault-free run.
  /// Corruption is only recoverable when `verify_integrity` is on: without
  /// the checksum layer nothing converts a flipped byte into a retry, so
  /// any corrupting plan is unrecoverable (silent wrong output).
  bool RecoverableWith(uint32_t max_task_attempts,
                       bool verify_integrity = false) const;
};

/// Resolves a FaultPlan for one job. Cheap to construct per job; FaultFor
/// is pure (const, no state), so concurrent task attempts can query it
/// without synchronization.
class FaultInjector {
 public:
  /// Inactive injector: never faults.
  FaultInjector() = default;

  /// `plan` may be nullptr (fault-free). The plan must outlive the
  /// injector.
  FaultInjector(const FaultPlan* plan, std::string job_name);

  bool active() const { return plan_ != nullptr && !plan_->Empty(); }

  /// The combined fault for one attempt: scripted specs stack (slowdowns
  /// multiply, the earliest crash wins) on top of the probabilistic layer.
  AttemptFault FaultFor(TaskPhase phase, size_t task_id,
                        uint32_t attempt) const;

 private:
  const FaultPlan* plan_ = nullptr;
  std::string job_name_;
};

}  // namespace fj::mr
