// The type-independent half of the engine (job.h), compiled once for every
// (K, V): validation, the integrity boundaries and fault injection that
// read no typed pairs (inputs, run blocks, reduce output), escalation (the
// failure latch, the quarantine cap, the attempt ladder) and commit.
#include "mapreduce/job.h"

#include <algorithm>
#include <iterator>
#include <string>

#include "mapreduce/integrity.h"

namespace fj::mr {

Status EngineOptions::Validate() const {
  if (local_threads > Executor::kMaxWorkers) {
    return Status::InvalidArgument("local_threads must be <= " +
                                   std::to_string(Executor::kMaxWorkers));
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
namespace {

/// Sums the committed task metrics (plus the inputs' verified bytes) into
/// the job totals — O(tasks), never a walk over the intermediate data.
/// The totals are typed fields only: no counter repeats one.
void SumJobTotals(uint64_t input_integrity_bytes, JobMetrics* metrics) {
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
  metrics->integrity_bytes_verified += input_integrity_bytes;
}

// Retry-chain bookkeeping. TallyAttempt folds a finished attempt into
// `chain`: its verification work and detections always (the bytes were
// really hashed even when the attempt then crashed), and its cost as a
// failed attempt when it crashed. CommitAttempt stamps the clean attempt's
// metrics with the chain's tally.
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

// The tasks whose committed cost exceeds `slowdown_factor` x the phase
// median, which lands in `*median`; none in a phase of under two tasks.
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

// First-finisher-wins cost commit of a backup attempt of `*task`, launched
// when the detector noticed, at `median`. A crashed backup loses. The
// loser is KILLED at the winner's commit, so it occupies its slot only
// until then — that kill is what makes speculation pay.
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

}  // namespace

void AccountScratch(const TaskContext& ctx, CounterSet* counters) {
  const LocalScratch& scratch = ctx.scratch();
  if (scratch.bytes_written() > 0 || scratch.bytes_read() > 0) {
    counters->Add("scratch.bytes_written",
                  static_cast<int64_t>(scratch.bytes_written()));
    counters->Add("scratch.bytes_read",
                  static_cast<int64_t>(scratch.bytes_read()));
  }
}

double AttemptSeconds(const WallTimer& timer, const TaskContext& ctx,
                      const AttemptFault& fault) {
  return (timer.ElapsedSeconds() + ctx.scratch().io_seconds()) *
             fault.slowdown +
         fault.extra_seconds;
}

void CorruptMapOutput(MapTaskOutput* out, const AttemptFault& fault) {
  std::vector<SortedRun*> pool;
  for (auto& spill : out->spills) {
    for (SortedRun& run : spill) {
      if (run.HasRecords()) pool.push_back(&run);
    }
  }
  if (pool.empty()) return;  // nothing to corrupt: the attempt stays clean
  FlipByte(pool[fault.corrupt_salt % pool.size()]->encoded,
           fault.corrupt_salt);
}

void VerifyRuns(const std::vector<const SortedRun*>& runs,
                AttemptResult* res) {
  for (const SortedRun* run : runs) {
    if (!run->HasRecords()) continue;
    res->metrics.integrity_bytes_verified += run->encoded.size();
    if (HashString(run->encoded) != run->checksum) {
      res->metrics.corruption_detected++;
      res->crashed = true;
    }
  }
}

void LineCollector::Emit(std::string line) {
  res_->metrics.output_records++;
  res_->metrics.output_bytes += line.size() + 1;
  if (verify_) stream_hash_ = HashCombine(stream_hash_, LineChecksum(line));
  res_->output.lines.push_back(std::move(line));
}

// The Dfs checksum of every line is hashed here, on the reduce task's
// worker, and handed to the output commit's Dfs write, which then only
// folds them instead of re-hashing every line on the committing thread.
void LineCollector::Seal(const AttemptFault& fault) {
  std::vector<std::string>& lines = res_->output.lines;
  // The injected fault lands after the stream hash, before the Dfs
  // hashes: exactly the bytes that would get committed.
  if (fault.corrupt_target == CorruptTarget::kReduceOutput &&
      !lines.empty()) {
    FlipByte(lines[fault.corrupt_salt % lines.size()],
             fault.corrupt_salt ^ 0x07);
  }
  std::vector<uint64_t>& hashes = res_->output.line_checksums;
  hashes.reserve(lines.size());
  for (const std::string& line : lines) hashes.push_back(LineChecksum(line));
  if (!verify_) return;
  uint64_t fold = kFnvOffsetBasis;
  for (size_t i = 0; i < lines.size(); ++i) {
    fold = HashCombine(fold, hashes[i]);
    res_->metrics.integrity_bytes_verified += lines[i].size() + 1;
  }
  if (fold != stream_hash_) {
    res_->metrics.corruption_detected++;
    res_->crashed = true;
  }
}

JobRun::JobRun(Dfs* dfs, const JobSpecBase& spec) : dfs_(dfs), spec_(spec) {
  metrics_.job_name = spec.name;
}

Status JobRun::Open(const Hooks& hooks) {
  const std::string prefix = "job '" + spec_.name + "': ";
  if (!hooks.mapper) return Status::InvalidArgument(prefix + "no mapper");
  if (!hooks.reducer) return Status::InvalidArgument(prefix + "no reducer");
  if (spec_.num_reduce_tasks == 0) {
    return Status::InvalidArgument(prefix + "num_reduce_tasks must be >= 1");
  }
  if (Status engine = spec_.Validate(); !engine.ok()) {
    return Status(engine.code(), prefix + engine.message());
  }
  if (spec_.input_files.empty()) {
    return Status::InvalidArgument(prefix + "no input files");
  }
  if (hooks.combiner_with_custom_order) {
    // The sort buffer groups combiner input by key in a hash table, which
    // cannot form a group of two different keys.
    return Status::InvalidArgument(
        prefix + "a combiner needs the default sort_less and group_equal");
  }

  FJ_ASSIGN_OR_RETURN(splits_,
                      dfs_->MakeSplits(spec_.input_files, spec_.num_map_tasks));
  file_lines_.resize(spec_.input_files.size());
  for (size_t i = 0; i < spec_.input_files.size(); ++i) {
    const std::string& file = spec_.input_files[i];
    FJ_ASSIGN_OR_RETURN(file_lines_[i], dfs_->ReadFile(file));
    if (!spec_.verify_integrity) continue;
    // A corrupted input has no healthy producer to re-run: a job failure,
    // not a retry.
    Result<uint64_t> verified = dfs_->VerifyFile(file);
    if (!verified.ok()) {
      return Status(verified.status().code(),
                    prefix + verified.status().message());
    }
    input_integrity_bytes_ += *verified;
  }

  metrics_.map_tasks.resize(splits_.size());
  metrics_.reduce_tasks.resize(spec_.num_reduce_tasks);
  task_counters_.resize(splits_.size() + spec_.num_reduce_tasks);
  quarantined_.resize(splits_.size());
  outputs_.resize(spec_.num_reduce_tasks);
  // The host executor: normally the pipeline's shared one (one set of
  // persistent workers serving every job of every stage); a standalone
  // job gets a private executor sized by local_threads.
  executor_ = spec_.executor;
  if (!executor_) executor_ = std::make_shared<Executor>(spec_.local_threads);
  runtime_before_ = executor_->stats();
  return Status::OK();
}

void JobRun::Fail(const Status& status) {
  MutexLock lock(&failure_mu_);
  if (status_.ok()) status_ = status;
  failed_.store(true, std::memory_order_release);
}

void JobRun::RunChain(TaskPhase phase, size_t t, const AttemptFn& attempt) {
  TaskMetrics& task = phase == TaskPhase::kMap ? metrics_.map_tasks[t]
                                               : metrics_.reduce_tasks[t];
  TaskMetrics chain;
  for (uint32_t a = 0; a < spec_.max_task_attempts; ++a) {
    bool done = false;
    attempt(t, a, [&](AttemptResult& res) {
      TallyAttempt(res.metrics, res.crashed, &chain);
      if (!res.contract.ok()) {
        task.contract_checks = res.metrics.contract_checks;
        Fail(res.contract);
        done = true;
        return false;
      }
      if (res.crashed) return false;
      task = CommitAttempt(std::move(res.metrics), chain);
      task_counters_[phase == TaskPhase::kMap ? t : splits_.size() + t] =
          std::move(res.counters);
      done = true;
      return true;
    });
    if (done) return;
  }
  // Every attempt crashed: the task's metrics are the chain's tally.
  chain.attempts = chain.failed_attempts;
  task = chain;
  Fail(Status::Internal("job '" + spec_.name + "': " + TaskPhaseName(phase) +
                        " task " + std::to_string(t) +
                        " failed permanently after " +
                        std::to_string(spec_.max_task_attempts) +
                        " attempts"));
}

void JobRun::MapsDone(TaskGroup* group, const AttemptFn& attempt) {
  map_done_wall_ = timer_.ElapsedSeconds();
  // Malformed input lines the committed map attempts routed to
  // TaskContext::QuarantineRecord (attempts are deterministic, so retries
  // and backups quarantine identically).
  for (const auto& lines : quarantined_) {
    metrics_.records_skipped += lines.size();
  }
  if (metrics_.records_skipped > spec_.max_skipped_records) {
    Fail(Status::DataLoss(
        "job '" + spec_.name + "': " +
        std::to_string(metrics_.records_skipped) +
        " malformed input records exceed max_skipped_records=" +
        std::to_string(spec_.max_skipped_records)));
    return;
  }
  SpawnBackups(TaskPhase::kMap, group, attempt);
}

void JobRun::ReducesDone(TaskGroup* group, const AttemptFn& attempt) {
  reduce_done_wall_ = timer_.ElapsedSeconds();
  SpawnBackups(TaskPhase::kReduce, group, attempt);
}

void JobRun::SpawnBackups(TaskPhase phase, TaskGroup* group,
                          const AttemptFn& attempt) {
  if (!spec_.speculative_execution || failed()) return;
  std::vector<TaskMetrics>* tasks = phase == TaskPhase::kMap
                                        ? &metrics_.map_tasks
                                        : &metrics_.reduce_tasks;
  double median = 0;
  for (size_t t : FindStragglers(*tasks, spec_.speculation_slowdown_factor,
                                 &median)) {
    group->Spawn([tasks, t, median, attempt] {
      TaskMetrics& task = (*tasks)[t];
      attempt(t, task.attempts, [&task, median](AttemptResult& res) {
        CommitBackup(std::move(res.metrics), res.crashed, median, &task);
        return false;
      });
    });
  }
}

Result<JobMetrics> JobRun::Finish(const Status& tasks) {
  FJ_RETURN_IF_ERROR(tasks);
  {
    MutexLock lock(&failure_mu_);
    FJ_RETURN_IF_ERROR(status_);
  }
  for (const CounterSet& counters : task_counters_) {
    metrics_.counters.MergeFrom(counters);
  }
  SumJobTotals(input_integrity_bytes_, &metrics_);
  FJ_RETURN_IF_ERROR(CommitOutput());
  metrics_.wall_seconds = timer_.ElapsedSeconds();
  metrics_.map_phase_wall_seconds = map_done_wall_;
  metrics_.reduce_phase_wall_seconds =
      std::max(0.0, reduce_done_wall_ - map_done_wall_);
  metrics_.runtime = executor_->stats() - runtime_before_;
  return std::move(metrics_);
}

// Atomic commit via temp-name + rename, so no observer can ever read a
// partial file under the final name. Quarantined input lines land in
// `<output_file>.bad`.
Status JobRun::CommitOutput() {
  if (spec_.output_file.empty()) return Status::OK();
  std::vector<std::string> all_lines;
  std::vector<uint64_t> all_checksums;
  size_t total = 0;
  for (const ReduceOutput& part : outputs_) total += part.lines.size();
  all_lines.reserve(total);
  all_checksums.reserve(total);
  for (ReduceOutput& part : outputs_) {
    std::move(part.lines.begin(), part.lines.end(),
              std::back_inserter(all_lines));
    all_checksums.insert(all_checksums.end(), part.line_checksums.begin(),
                         part.line_checksums.end());
  }
  const std::string tmp = spec_.output_file + ".__commit";
  if (dfs_->Exists(tmp)) FJ_RETURN_IF_ERROR(dfs_->DeleteFile(tmp));
  FJ_RETURN_IF_ERROR(
      dfs_->WriteFile(tmp, std::move(all_lines), std::move(all_checksums)));
  Status renamed = dfs_->RenameFile(tmp, spec_.output_file);
  if (!renamed.ok()) {
    (void)dfs_->DeleteFile(tmp);  // best effort; the rename error wins
    return renamed;
  }
  if (metrics_.records_skipped == 0) return Status::OK();
  std::vector<std::string> bad_lines;
  bad_lines.reserve(metrics_.records_skipped);
  for (auto& task_lines : quarantined_) {
    std::move(task_lines.begin(), task_lines.end(),
              std::back_inserter(bad_lines));
  }
  return dfs_->WriteFile(spec_.output_file + ".bad", std::move(bad_lines));
}

}  // namespace internal
}  // namespace fj::mr
