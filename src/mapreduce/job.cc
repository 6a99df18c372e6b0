// The type-independent half of the engine (job.h): engine-option checks,
// the attempt ladder's bookkeeping, and the job-level totals.
#include "mapreduce/job.h"

#include <algorithm>
#include <string>

namespace fj::mr {

Status EngineOptions::Validate() const {
  if (local_threads > Executor::kMaxWorkers) {
    return Status::InvalidArgument("local_threads must be <= " +
                                   std::to_string(Executor::kMaxWorkers));
  }
  if (merge_factor < 2) {
    return Status::InvalidArgument("merge_factor must be >= 2");
  }
  if (max_task_attempts < 1) {
    return Status::InvalidArgument("max_task_attempts must be >= 1");
  }
  if (speculative_execution && speculation_slowdown_factor <= 1.0) {
    return Status::InvalidArgument("speculation_slowdown_factor must be > 1");
  }
  if (check_contracts && contract_sample_every < 1) {
    return Status::InvalidArgument("contract_sample_every must be >= 1");
  }
  return Status::OK();
}

namespace internal {

void AccountScratch(const TaskContext& ctx, CounterSet* counters) {
  const LocalScratch& scratch = ctx.scratch();
  if (scratch.bytes_written() > 0 || scratch.bytes_read() > 0) {
    counters->Add("scratch.bytes_written",
                  static_cast<int64_t>(scratch.bytes_written()));
    counters->Add("scratch.bytes_read",
                  static_cast<int64_t>(scratch.bytes_read()));
  }
  if (scratch.spill_bytes_written() > 0 || scratch.spill_bytes_read() > 0) {
    counters->Add("scratch.spill_bytes_written",
                  static_cast<int64_t>(scratch.spill_bytes_written()));
    counters->Add("scratch.spill_bytes_read",
                  static_cast<int64_t>(scratch.spill_bytes_read()));
  }
}

double AttemptSeconds(const WallTimer& timer, const TaskContext& ctx,
                      const AttemptFault& fault) {
  return (timer.ElapsedSeconds() + ctx.charged_seconds()) * fault.slowdown +
         fault.extra_seconds;
}

void TallyAttempt(const TaskMetrics& attempt, bool crashed,
                  TaskMetrics* chain) {
  chain->integrity_bytes_verified += attempt.integrity_bytes_verified;
  chain->corruption_detected += attempt.corruption_detected;
  if (crashed) {
    chain->failed_attempts++;
    chain->failed_attempt_seconds += attempt.seconds;
  }
}

TaskMetrics CommitAttempt(TaskMetrics clean, const TaskMetrics& chain) {
  clean.attempts = chain.failed_attempts + 1;
  clean.failed_attempts = chain.failed_attempts;
  clean.failed_attempt_seconds = chain.failed_attempt_seconds;
  clean.integrity_bytes_verified = chain.integrity_bytes_verified;
  clean.corruption_detected = chain.corruption_detected;
  return clean;
}

std::vector<size_t> FindStragglers(const std::vector<TaskMetrics>& tasks,
                                   double slowdown_factor, double* median) {
  std::vector<size_t> stragglers;
  if (tasks.size() < 2) return stragglers;
  std::vector<double> secs;
  secs.reserve(tasks.size());
  for (const TaskMetrics& t : tasks) secs.push_back(t.seconds);
  std::sort(secs.begin(), secs.end());
  *median = secs[secs.size() / 2];
  if (*median <= 0) return stragglers;
  const double threshold = *median * slowdown_factor;
  for (size_t t = 0; t < tasks.size(); ++t) {
    if (tasks[t].seconds > threshold) stragglers.push_back(t);
  }
  return stragglers;
}

void CommitBackup(TaskMetrics backup, bool crashed, double median,
                  TaskMetrics* task) {
  task->attempts++;
  task->speculative_launched = true;
  task->integrity_bytes_verified += backup.integrity_bytes_verified;
  task->corruption_detected += backup.corruption_detected;
  const double primary_finish = task->failed_attempt_seconds + task->seconds;
  const double backup_finish = median + backup.seconds;
  if (crashed || backup_finish >= primary_finish) {
    // The backup died, or was killed at the straggler's commit: the
    // straggler's commit stands.
    task->speculative_loser_seconds +=
        std::min(backup.seconds, std::max(0.0, primary_finish - median));
    return;
  }
  backup.attempts = task->attempts;
  backup.failed_attempts = task->failed_attempts;
  backup.failed_attempt_seconds = task->failed_attempt_seconds;
  backup.speculative_launched = true;
  backup.speculative_won = true;
  backup.speculative_loser_seconds =
      task->speculative_loser_seconds +
      std::max(0.0, backup_finish - task->failed_attempt_seconds);
  backup.integrity_bytes_verified = task->integrity_bytes_verified;
  backup.corruption_detected = task->corruption_detected;
  *task = std::move(backup);
}

void SumJobTotals(const EngineOptions& options,
                  uint64_t input_integrity_bytes, JobMetrics* metrics) {
  for (const TaskMetrics& t : metrics->map_tasks) {
    metrics->map_output_records += t.output_records;
    metrics->map_output_bytes += t.output_bytes;
    metrics->shuffle_records += t.shuffle_records;
    metrics->shuffle_bytes += t.shuffle_bytes;
    metrics->input_bytes += t.input_bytes;
  }
  for (const std::vector<TaskMetrics>* tasks :
       {&metrics->map_tasks, &metrics->reduce_tasks}) {
    for (const TaskMetrics& t : *tasks) {
      metrics->spill_count += t.spill_count;
      metrics->spilled_bytes += t.spilled_bytes;
      metrics->merge_passes += t.merge_passes;  // 0 on map tasks
      metrics->failed_attempts += t.failed_attempts;
      if (t.speculative_launched) metrics->speculative_launched++;
      if (t.speculative_won) metrics->speculative_wins++;
      metrics->wasted_task_seconds += t.wasted_seconds();
      metrics->integrity_bytes_verified += t.integrity_bytes_verified;
      metrics->corruption_detected += t.corruption_detected;
      metrics->contract_checks += t.contract_checks;
      metrics->codec_logical_bytes += t.codec_logical_bytes;
      metrics->codec_encoded_bytes += t.codec_encoded_bytes;
    }
  }
  CounterSet& counters = metrics->counters;
  if (metrics->codec_encoded_bytes > 0) {
    counters.Add("format.logical_bytes",
                 static_cast<int64_t>(metrics->codec_logical_bytes));
    counters.Add("format.encoded_bytes",
                 static_cast<int64_t>(metrics->codec_encoded_bytes));
  }
  if (options.check_contracts && metrics->contract_checks > 0) {
    counters.Add("contract.checks",
                 static_cast<int64_t>(metrics->contract_checks));
  }
  metrics->integrity_bytes_verified += input_integrity_bytes;
  if (options.verify_integrity) {
    counters.Add("integrity.bytes_verified",
                 static_cast<int64_t>(metrics->integrity_bytes_verified));
    if (metrics->corruption_detected > 0) {
      counters.Add("integrity.corruption_detected",
                   static_cast<int64_t>(metrics->corruption_detected));
    }
  }
  if (metrics->records_skipped > 0) {
    counters.Add("records_skipped",
                 static_cast<int64_t>(metrics->records_skipped));
  }
}

}  // namespace internal
}  // namespace fj::mr
