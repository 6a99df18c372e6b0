#include "mapreduce/fault.h"

#include <algorithm>

#include "common/hash.h"

namespace fj::mr {

namespace {

/// Maps a 64-bit hash onto [0, 1). 53 mantissa bits, like Rng::NextDouble.
double UnitDraw(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const char* TaskPhaseName(TaskPhase phase) {
  switch (phase) {
    case TaskPhase::kMap:
      return "map";
    case TaskPhase::kReduce:
      return "reduce";
  }
  return "?";
}

bool FaultSpec::AppliesTo(TaskPhase p, size_t task, uint32_t attempt,
                          const std::string& job_name) const {
  if (p != phase || task != task_id) return false;
  if (attempt < first_attempt) return false;
  if (failing_attempts != kAllAttempts &&
      attempt - first_attempt >= failing_attempts) {
    return false;
  }
  if (!job_substring.empty() &&
      job_name.find(job_substring) == std::string::npos) {
    return false;
  }
  return true;
}

bool FaultPlan::Empty() const {
  return faults.empty() && crash_probability <= 0.0 &&
         straggler_probability <= 0.0 && corrupt_probability <= 0.0;
}

bool FaultPlan::RecoverableWith(uint32_t max_task_attempts,
                                bool verify_integrity) const {
  for (const FaultSpec& spec : faults) {
    // A corrupting spec behaves like a crash at commit time — but only the
    // integrity layer can detect it and trigger the retry.
    const bool corrupts = spec.corrupt_target != CorruptTarget::kNone;
    if (corrupts && !verify_integrity) return false;
    if (spec.crash_after_records == AttemptFault::kNoCrash && !corrupts) {
      continue;
    }
    if (spec.failing_attempts == FaultSpec::kAllAttempts) return false;
    // The attempts this fault covers must leave at least one clean attempt
    // inside the budget.
    uint64_t last_failing =
        static_cast<uint64_t>(spec.first_attempt) + spec.failing_attempts;
    if (spec.first_attempt == 0 && last_failing >= max_task_attempts) {
      return false;
    }
  }
  if (crash_probability > 0.0 && crash_failing_attempts >= max_task_attempts) {
    return false;
  }
  if (corrupt_probability > 0.0 &&
      (!verify_integrity || corrupt_failing_attempts >= max_task_attempts)) {
    return false;
  }
  return true;
}

FaultInjector::FaultInjector(const FaultPlan* plan, std::string job_name)
    : plan_(plan), job_name_(std::move(job_name)) {}

AttemptFault FaultInjector::FaultFor(TaskPhase phase, size_t task_id,
                                     uint32_t attempt) const {
  AttemptFault fault;
  if (!active()) return fault;

  // One stable hash per (job, phase, task, attempt) coordinate; scripted
  // corruption salts fold it in so each affected attempt corrupts a
  // distinct record, and the probabilistic layer salts it per draw.
  uint64_t h = HashString(job_name_);
  h = HashCombine(h, HashInt64(static_cast<uint64_t>(phase)));
  h = HashCombine(h, HashInt64(static_cast<uint64_t>(task_id)));
  h = HashCombine(h, HashInt64(attempt));
  h = HashCombine(h, HashInt64(plan_->seed));

  for (const FaultSpec& spec : plan_->faults) {
    if (!spec.AppliesTo(phase, task_id, attempt, job_name_)) continue;
    fault.crash_after_records =
        std::min(fault.crash_after_records, spec.crash_after_records);
    fault.slowdown *= spec.slowdown;
    fault.extra_seconds += spec.extra_seconds;
    if (spec.corrupt_target != CorruptTarget::kNone && !fault.corrupts()) {
      fault.corrupt_target = spec.corrupt_target;
      fault.corrupt_salt = HashCombine(h, HashInt64(spec.corrupt_salt));
    }
  }

  if (plan_->crash_probability > 0.0 &&
      attempt < plan_->crash_failing_attempts &&
      UnitDraw(HashInt64(h ^ 0xc1)) < plan_->crash_probability) {
    uint64_t k = HashInt64(h ^ 0xc2) % (plan_->crash_after_records + 1);
    fault.crash_after_records = std::min(fault.crash_after_records, k);
  }
  if (plan_->straggler_probability > 0.0 && attempt == 0 &&
      UnitDraw(HashInt64(h ^ 0x51)) < plan_->straggler_probability) {
    fault.slowdown *= plan_->straggler_slowdown;
    fault.extra_seconds += plan_->straggler_extra_seconds;
  }
  if (plan_->corrupt_probability > 0.0 && !fault.corrupts() &&
      attempt < plan_->corrupt_failing_attempts &&
      UnitDraw(HashInt64(h ^ 0xd1)) < plan_->corrupt_probability) {
    fault.corrupt_target = phase == TaskPhase::kMap
                               ? CorruptTarget::kMapOutput
                               : CorruptTarget::kReduceOutput;
    fault.corrupt_salt = HashInt64(h ^ 0xd3);
  }
  return fault;
}

}  // namespace fj::mr
