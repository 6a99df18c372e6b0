// Per-task context: counters, fault hooks, quarantine, and local scratch
// space (the analogue of a task's local disk, used by reduce-based block
// processing in Section 5 of the paper).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/result.h"
#include "mapreduce/fault.h"

namespace fj::mr {

/// Models a task's local disk. Data lives in memory, but reads and writes
/// are metered (bytes + simulated seconds); the engine adds io_seconds()
/// to the attempt's cost, so the cluster model's makespans include the
/// extra I/O that reduce-based block processing performs. Sort-spill-merge
/// runs never pass through here: their bytes are TaskMetrics::spilled_bytes,
/// priced by the model's local-disk term.
class LocalScratch {
 public:
  /// Simulated cost of one byte of local I/O (~100 MB/s).
  static constexpr double kSecondsPerByte = 1e-8;

  /// Stores `lines` under `key`, replacing any previous content.
  void Put(const std::string& key, std::vector<std::string> lines);

  /// Reads back a stored block. NotFound if absent.
  Result<const std::vector<std::string>*> Get(const std::string& key) const;

  void Erase(const std::string& key);

  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t bytes_read() const { return bytes_read_; }

  /// Simulated seconds spent on scratch I/O so far.
  double io_seconds() const {
    return kSecondsPerByte * static_cast<double>(bytes_written_ + bytes_read_);
  }

 private:
  std::map<std::string, std::vector<std::string>> blocks_;
  uint64_t bytes_written_ = 0;
  mutable uint64_t bytes_read_ = 0;
};

/// Handed to mapper/reducer Setup(); identifies the task *attempt* and
/// collects costs. The engine creates one TaskContext per attempt: a
/// retried or speculative task sees a fresh context, so counters and
/// scratch from a failed attempt never leak into the committed result.
class TaskContext {
 public:
  TaskContext(size_t task_id, uint32_t attempt, CounterSet* counters)
      : task_id_(task_id), attempt_(attempt), counters_(counters) {}

  size_t task_id() const { return task_id_; }

  /// 0 for the original attempt; retries and speculative backups count up.
  uint32_t attempt() const { return attempt_; }

  CounterSet& counters() { return *counters_; }

  /// Fault injection hooks (see mapreduce/fault.h). The engine installs
  /// the attempt's resolved fault and ticks record progress; user code
  /// never calls these — mappers/reducers stay fault-oblivious.
  void set_fault(const AttemptFault& fault) { fault_ = fault; }
  const AttemptFault& fault() const { return fault_; }

  /// True when the installed fault says this attempt must crash now
  /// (checked by the engine before each record / reduce group).
  bool CrashDue() const {
    return records_processed_ >= fault_.crash_after_records;
  }
  void NoteRecordProcessed() { records_processed_++; }

  /// Malformed-input quarantine (map attempts only). Instead of aborting
  /// the job on an unparsable input line, a mapper hands the raw line here;
  /// the engine writes the committed attempt's quarantined lines to
  /// `<output_file>.bad` in map-task order and counts them against
  /// JobSpec::max_skipped_records. Attempt-scoped like everything else: a
  /// crashed attempt's quarantined lines are dropped with it.
  void QuarantineRecord(std::string line) {
    quarantined_.push_back(std::move(line));
  }
  std::vector<std::string> TakeQuarantined() { return std::move(quarantined_); }

  LocalScratch& scratch() { return scratch_; }
  const LocalScratch& scratch() const { return scratch_; }

 private:
  size_t task_id_;
  uint32_t attempt_ = 0;
  CounterSet* counters_;
  uint64_t records_processed_ = 0;
  AttemptFault fault_;
  LocalScratch scratch_;
  std::vector<std::string> quarantined_;
};

}  // namespace fj::mr
