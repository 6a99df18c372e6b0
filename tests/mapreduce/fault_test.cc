// Fault-tolerance contract tests for the engine's task-attempt layer:
// transient crashes retry to a byte-identical result (output, metrics,
// counters), permanent failures surface as a clean job-level Status with
// no output written, stragglers get speculative backups with
// first-finisher-wins commit, and the probabilistic fault layer is
// deterministic and recoverable — including with spilling and
// multi-threaded execution.
#include "mapreduce/fault.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/string_util.h"
#include "mapreduce/dfs.h"
#include "mapreduce/job.h"

namespace fj::mr {
namespace {

using K = std::string;
using V = uint64_t;

// Splits each line into words and emits (word, 1); counts mapped records
// so the tests can check counters survive faults unduplicated.
class WordCountMapper : public Mapper<K, V> {
 public:
  void Map(const InputRecord& record, Emitter<K, V>* out,
           TaskContext* ctx) override {
    ctx->counters().Add("mapper.lines", 1);
    for (const auto& w : Split(*record.line, ' ')) {
      if (!w.empty()) out->Emit(w, 1);
    }
  }
};

class SumReducer : public Reducer<K, V> {
 public:
  void Reduce(const K& key, std::span<const std::pair<K, V>> group,
              OutputEmitter* out, TaskContext* ctx) override {
    ctx->counters().Add("reducer.groups", 1);
    uint64_t total = 0;
    for (const auto& [k, v] : group) total += v;
    out->Emit(key + "\t" + std::to_string(total));
  }
};

JobSpec<K, V> WordCountSpec(const std::string& in, const std::string& out) {
  JobSpec<K, V> spec;
  spec.name = "wordcount";
  spec.input_files = {in};
  spec.output_file = out;
  spec.num_map_tasks = 3;
  spec.num_reduce_tasks = 3;
  spec.mapper_factory = [] { return std::make_unique<WordCountMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  return spec;
}

void WriteInput(Dfs* dfs) {
  ASSERT_TRUE(
      dfs->WriteFile("in", {"a b a", "b c", "a d e", "f g", "c c c", "h a b"})
          .ok());
}

// Charges every task of `phase` a uniform simulated second on its first
// attempt. The speculation detector works on measured wall time, and these
// tiny test tasks finish in microseconds — one scheduler hiccup can push a
// task past 3x the phase median and trigger a spurious backup (which may
// even win, perturbing the job's speculation counters). A flat charge
// swamps that noise: no task in the stabilized phase can exceed the
// threshold, so only the phase under test ever speculates.
void StabilizePhase(FaultPlan* plan, TaskPhase phase, size_t tasks) {
  for (size_t t = 0; t < tasks; ++t) {
    plan->faults.push_back(FaultSpec{.phase = phase,
                                     .task_id = static_cast<uint32_t>(t),
                                     .first_attempt = 0,
                                     .failing_attempts = 1,
                                     .extra_seconds = 1.0});
  }
}

std::vector<std::string> OutputLines(const Dfs& dfs, const std::string& file) {
  auto lines = dfs.ReadFile(file);
  EXPECT_TRUE(lines.ok()) << lines.status().ToString();
  return lines.ok() ? *lines.value() : std::vector<std::string>{};
}

// Runs the fault-free baseline once.
struct Baseline {
  std::vector<std::string> output;
  std::map<std::string, int64_t> counters;
};

Baseline RunBaseline() {
  Dfs dfs;
  WriteInput(&dfs);
  Job<K, V> job(&dfs, WordCountSpec("in", "out"));
  auto metrics = job.Run();
  EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
  return Baseline{OutputLines(dfs, "out"), metrics->counters.Snapshot()};
}

TEST(FaultTest, TransientMapCrashRetriesToIdenticalResult) {
  Baseline baseline = RunBaseline();

  Dfs dfs;
  WriteInput(&dfs);
  auto plan = std::make_shared<FaultPlan>();
  // Task 1's first two attempts die after one record; the third commits.
  plan->faults.push_back(FaultSpec{.phase = TaskPhase::kMap,
                                   .task_id = 1,
                                   .first_attempt = 0,
                                   .failing_attempts = 2,
                                   .crash_after_records = 1});
  auto spec = WordCountSpec("in", "out");
  spec.fault_plan = plan;
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  EXPECT_EQ(OutputLines(dfs, "out"), baseline.output);
  EXPECT_EQ(metrics->counters.Snapshot(), baseline.counters);
  EXPECT_EQ(metrics->map_tasks[1].attempts, 3u);
  EXPECT_EQ(metrics->map_tasks[1].failed_attempts, 2u);
  EXPECT_GT(metrics->map_tasks[1].failed_attempt_seconds, 0.0);
  EXPECT_GT(metrics->map_tasks[1].wasted_seconds(), 0.0);
  EXPECT_EQ(metrics->failed_attempts, 2u);
  // The other tasks ran once.
  EXPECT_EQ(metrics->map_tasks[0].failed_attempts, 0u);
  EXPECT_EQ(metrics->map_tasks[2].attempts, 1u);
}

TEST(FaultTest, TransientReduceCrashRetriesToIdenticalResult) {
  Baseline baseline = RunBaseline();

  Dfs dfs;
  WriteInput(&dfs);
  auto plan = std::make_shared<FaultPlan>();
  // Reduce task 0 dies after its first key group, once.
  plan->faults.push_back(FaultSpec{.phase = TaskPhase::kReduce,
                                   .task_id = 0,
                                   .first_attempt = 0,
                                   .failing_attempts = 1,
                                   .crash_after_records = 1});
  auto spec = WordCountSpec("in", "out");
  spec.fault_plan = plan;
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  EXPECT_EQ(OutputLines(dfs, "out"), baseline.output);
  EXPECT_EQ(metrics->counters.Snapshot(), baseline.counters);
  EXPECT_EQ(metrics->reduce_tasks[0].attempts, 2u);
  EXPECT_EQ(metrics->reduce_tasks[0].failed_attempts, 1u);
  EXPECT_EQ(metrics->failed_attempts, 1u);
}

TEST(FaultTest, CrashBeyondRecordCountNeverFires) {
  Baseline baseline = RunBaseline();

  Dfs dfs;
  WriteInput(&dfs);
  auto plan = std::make_shared<FaultPlan>();
  // 6 input lines over 3 map tasks = 2 records per split; a budget of 100
  // records is never reached, so the attempt completes.
  plan->faults.push_back(FaultSpec{.phase = TaskPhase::kMap,
                                   .task_id = 0,
                                   .failing_attempts = FaultSpec::kAllAttempts,
                                   .crash_after_records = 100});
  auto spec = WordCountSpec("in", "out");
  spec.fault_plan = plan;
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(OutputLines(dfs, "out"), baseline.output);
  EXPECT_EQ(metrics->failed_attempts, 0u);
}

TEST(FaultTest, PermanentFailureFailsJobWithoutOutput) {
  Dfs dfs;
  WriteInput(&dfs);
  auto plan = std::make_shared<FaultPlan>();
  plan->faults.push_back(FaultSpec{.phase = TaskPhase::kReduce,
                                   .task_id = 1,
                                   .failing_attempts = FaultSpec::kAllAttempts,
                                   .crash_after_records = 0});
  auto spec = WordCountSpec("in", "out");
  spec.fault_plan = plan;
  spec.max_task_attempts = 3;
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_FALSE(metrics.ok());
  const std::string message = metrics.status().ToString();
  EXPECT_NE(message.find("reduce task 1"), std::string::npos) << message;
  EXPECT_NE(message.find("3 attempts"), std::string::npos) << message;
  // No partial output: the file was never written.
  EXPECT_FALSE(dfs.ReadFile("out").ok());
  EXPECT_FALSE(plan->RecoverableWith(spec.max_task_attempts));
}

TEST(FaultTest, MaxAttemptsBoundsTheRetryChain) {
  Dfs dfs;
  WriteInput(&dfs);
  auto make_spec = [](uint32_t failing) {
    auto plan = std::make_shared<FaultPlan>();
    plan->faults.push_back(FaultSpec{.phase = TaskPhase::kMap,
                                     .task_id = 0,
                                     .failing_attempts = failing,
                                     .crash_after_records = 0});
    auto spec = WordCountSpec("in", "out");
    spec.fault_plan = plan;
    spec.max_task_attempts = 2;
    return spec;
  };

  // Two crashing attempts exhaust a budget of two.
  Job<K, V> failing_job(&dfs, make_spec(2));
  EXPECT_FALSE(failing_job.Run().ok());
  // One crashing attempt leaves room for the retry to commit.
  Job<K, V> recovering_job(&dfs, make_spec(1));
  auto metrics = recovering_job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->map_tasks[0].failed_attempts, 1u);
}

TEST(FaultTest, StragglerGetsSpeculativeBackupThatWins) {
  Baseline baseline = RunBaseline();

  Dfs dfs;
  WriteInput(&dfs);
  auto plan = std::make_shared<FaultPlan>();
  StabilizePhase(plan.get(), TaskPhase::kReduce, 3);
  // Map task 2's original attempt straggles badly; the backup (attempt 1)
  // is unaffected and finishes first.
  plan->faults.push_back(FaultSpec{.phase = TaskPhase::kMap,
                                   .task_id = 2,
                                   .first_attempt = 0,
                                   .failing_attempts = 1,
                                   .extra_seconds = 50.0});
  auto spec = WordCountSpec("in", "out");
  spec.fault_plan = plan;
  spec.speculative_execution = true;
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  EXPECT_EQ(OutputLines(dfs, "out"), baseline.output);
  EXPECT_EQ(metrics->counters.Snapshot(), baseline.counters);
  const TaskMetrics& task = metrics->map_tasks[2];
  EXPECT_TRUE(task.speculative_launched);
  EXPECT_TRUE(task.speculative_won);
  EXPECT_EQ(task.attempts, 2u);
  // The committed cost is the backup's (fast) run, and the straggler was
  // KILLED at the backup's commit — its wasted slot time is the backup's
  // finish time, not the 50 seconds it would have dragged on for.
  EXPECT_GT(task.speculative_loser_seconds, 0.0);
  EXPECT_LT(task.speculative_loser_seconds, 1.0);
  EXPECT_LT(task.seconds, 1.0);
  EXPECT_EQ(metrics->speculative_launched, 1u);
  EXPECT_EQ(metrics->speculative_wins, 1u);
  EXPECT_LT(metrics->wasted_task_seconds, 1.0);
}

TEST(FaultTest, CrashedBackupLeavesPrimaryCommitStanding) {
  Baseline baseline = RunBaseline();

  Dfs dfs;
  WriteInput(&dfs);
  auto plan = std::make_shared<FaultPlan>();
  StabilizePhase(plan.get(), TaskPhase::kMap, 3);
  // Reduce task 1 straggles (but commits) — and its backup crashes.
  plan->faults.push_back(FaultSpec{.phase = TaskPhase::kReduce,
                                   .task_id = 1,
                                   .first_attempt = 0,
                                   .failing_attempts = 1,
                                   .extra_seconds = 50.0});
  plan->faults.push_back(FaultSpec{.phase = TaskPhase::kReduce,
                                   .task_id = 1,
                                   .first_attempt = 1,
                                   .failing_attempts = 1,
                                   .crash_after_records = 0});
  auto spec = WordCountSpec("in", "out");
  spec.fault_plan = plan;
  spec.speculative_execution = true;
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  EXPECT_EQ(OutputLines(dfs, "out"), baseline.output);
  const TaskMetrics& task = metrics->reduce_tasks[1];
  EXPECT_TRUE(task.speculative_launched);
  EXPECT_FALSE(task.speculative_won);
  // The straggler's committed cost stands; the dead backup is wasted work.
  EXPECT_GE(task.seconds, 50.0);
  EXPECT_GT(task.speculative_loser_seconds, 0.0);
  EXPECT_EQ(metrics->speculative_wins, 0u);
}

TEST(FaultTest, SlowBackupLosesToPrimary) {
  Baseline baseline = RunBaseline();

  Dfs dfs;
  WriteInput(&dfs);
  auto plan = std::make_shared<FaultPlan>();
  // The original straggles by 50s; the backup is even slower (200s), so
  // first-finisher-wins keeps the original's commit.
  plan->faults.push_back(FaultSpec{.phase = TaskPhase::kMap,
                                   .task_id = 0,
                                   .first_attempt = 0,
                                   .failing_attempts = 1,
                                   .extra_seconds = 50.0});
  plan->faults.push_back(FaultSpec{.phase = TaskPhase::kMap,
                                   .task_id = 0,
                                   .first_attempt = 1,
                                   .failing_attempts = 1,
                                   .extra_seconds = 200.0});
  auto spec = WordCountSpec("in", "out");
  spec.fault_plan = plan;
  spec.speculative_execution = true;
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  EXPECT_EQ(OutputLines(dfs, "out"), baseline.output);
  const TaskMetrics& task = metrics->map_tasks[0];
  EXPECT_TRUE(task.speculative_launched);
  EXPECT_FALSE(task.speculative_won);
  EXPECT_GE(task.seconds, 50.0);
  // The backup was killed at the primary's 50s commit — it never ran its
  // full 200 seconds.
  EXPECT_GE(task.speculative_loser_seconds, 40.0);
  EXPECT_LT(task.speculative_loser_seconds, 100.0);
}

TEST(FaultTest, RetryChainThenSpeculationComposes) {
  Baseline baseline = RunBaseline();

  Dfs dfs;
  WriteInput(&dfs);
  auto plan = std::make_shared<FaultPlan>();
  // Attempt 0 crashes; attempt 1 commits but straggles; the backup
  // (attempt 2) is clean and wins.
  plan->faults.push_back(FaultSpec{.phase = TaskPhase::kMap,
                                   .task_id = 1,
                                   .first_attempt = 0,
                                   .failing_attempts = 1,
                                   .crash_after_records = 0});
  plan->faults.push_back(FaultSpec{.phase = TaskPhase::kMap,
                                   .task_id = 1,
                                   .first_attempt = 1,
                                   .failing_attempts = 1,
                                   .extra_seconds = 50.0});
  auto spec = WordCountSpec("in", "out");
  spec.fault_plan = plan;
  spec.speculative_execution = true;
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  EXPECT_EQ(OutputLines(dfs, "out"), baseline.output);
  const TaskMetrics& task = metrics->map_tasks[1];
  EXPECT_EQ(task.attempts, 3u);
  EXPECT_EQ(task.failed_attempts, 1u);
  EXPECT_TRUE(task.speculative_won);
  // Kill-at-commit: the straggling retry died at the backup's (fast)
  // finish, so barely any of its 50 charged seconds were wasted.
  EXPECT_LT(task.speculative_loser_seconds, 1.0);
}

TEST(FaultTest, ProbabilisticPlanIsDeterministicAndRecoverable) {
  Baseline baseline = RunBaseline();

  auto plan = std::make_shared<FaultPlan>();
  plan->seed = 7;
  plan->crash_probability = 0.9;  // nearly every task loses early attempts
  plan->crash_after_records = 1;
  plan->crash_failing_attempts = 2;
  plan->straggler_probability = 0.5;
  plan->straggler_extra_seconds = 10.0;
  ASSERT_TRUE(plan->RecoverableWith(4));
  ASSERT_FALSE(plan->RecoverableWith(2));

  auto run = [&plan](size_t threads) {
    Dfs dfs;
    WriteInput(&dfs);
    auto spec = WordCountSpec("in", "out");
    spec.fault_plan = plan;
    spec.local_threads = threads;
    spec.sort_buffer_bytes = 64;  // force spilling under faults too
    Job<K, V> job(&dfs, spec);
    auto metrics = job.Run();
    EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
    return std::make_pair(OutputLines(dfs, "out"),
                          metrics.ok() ? metrics->failed_attempts : 0);
  };

  auto [out1, failed1] = run(1);
  auto [out2, failed2] = run(1);
  auto [out4, failed4] = run(4);
  EXPECT_EQ(out1, baseline.output);
  EXPECT_EQ(out2, baseline.output);
  EXPECT_EQ(out4, baseline.output);
  // The drawn faults are a pure function of (seed, job, coordinates):
  // identical across runs and thread counts.
  EXPECT_GT(failed1, 0u);
  EXPECT_EQ(failed1, failed2);
  EXPECT_EQ(failed1, failed4);
}

TEST(FaultTest, JobSubstringScopesSpecsToMatchingJobs) {
  FaultSpec scoped{.phase = TaskPhase::kMap,
                   .task_id = 0,
                   .crash_after_records = 0,
                   .job_substring = "stage2"};
  EXPECT_TRUE(scoped.AppliesTo(TaskPhase::kMap, 0, 0, "pipeline-stage2-pk"));
  EXPECT_FALSE(scoped.AppliesTo(TaskPhase::kMap, 0, 0, "stage1-sort"));
  EXPECT_FALSE(scoped.AppliesTo(TaskPhase::kReduce, 0, 0, "stage2"));
  EXPECT_FALSE(scoped.AppliesTo(TaskPhase::kMap, 1, 0, "stage2"));
}

TEST(FaultTest, CorruptionRecoverabilityRequiresVerification) {
  FaultPlan plan;
  plan.faults.push_back(FaultSpec{.phase = TaskPhase::kMap,
                                  .task_id = 0,
                                  .first_attempt = 0,
                                  .failing_attempts = 2,
                                  .corrupt_target = CorruptTarget::kMapOutput});
  EXPECT_FALSE(plan.Empty());
  // Without verification nothing detects the flipped byte — the plan can
  // never be recovered from, whatever the attempt budget.
  EXPECT_FALSE(plan.RecoverableWith(4));
  EXPECT_FALSE(plan.RecoverableWith(100, false));
  // With verification, detection converts corruption into bounded retries:
  // attempts 0 and 1 fail, so a budget of 3+ recovers and 2 does not.
  EXPECT_TRUE(plan.RecoverableWith(3, true));
  EXPECT_FALSE(plan.RecoverableWith(2, true));

  FaultPlan probabilistic;
  probabilistic.corrupt_probability = 0.3;
  probabilistic.corrupt_failing_attempts = 2;
  EXPECT_FALSE(probabilistic.Empty());
  EXPECT_FALSE(probabilistic.RecoverableWith(4));
  EXPECT_TRUE(probabilistic.RecoverableWith(4, true));
  EXPECT_FALSE(probabilistic.RecoverableWith(2, true));

  FaultPlan permanent;
  permanent.faults.push_back(
      FaultSpec{.phase = TaskPhase::kMap,
                .failing_attempts = FaultSpec::kAllAttempts,
                .corrupt_target = CorruptTarget::kMapOutput});
  EXPECT_FALSE(permanent.RecoverableWith(100, true));
}

TEST(FaultTest, CorruptionSaltsAreDeterministicAndPerAttempt) {
  FaultPlan plan;
  plan.faults.push_back(FaultSpec{.phase = TaskPhase::kMap,
                                  .task_id = 1,
                                  .first_attempt = 0,
                                  .failing_attempts = 2,
                                  .corrupt_target = CorruptTarget::kSpill,
                                  .corrupt_salt = 9});
  FaultInjector a(&plan, "job");
  FaultInjector b(&plan, "job");
  AttemptFault first = a.FaultFor(TaskPhase::kMap, 1, 0);
  ASSERT_TRUE(first.corrupts());
  EXPECT_EQ(first.corrupt_target, CorruptTarget::kSpill);
  // Same coordinates resolve to the same salt across injectors...
  EXPECT_EQ(first.corrupt_salt, b.FaultFor(TaskPhase::kMap, 1, 0).corrupt_salt);
  // ...different attempts corrupt a different deterministic location, and
  // attempts past the failing range are clean.
  EXPECT_NE(first.corrupt_salt, a.FaultFor(TaskPhase::kMap, 1, 1).corrupt_salt);
  EXPECT_FALSE(a.FaultFor(TaskPhase::kMap, 1, 2).corrupts());
  EXPECT_FALSE(a.FaultFor(TaskPhase::kMap, 0, 0).corrupts());
  EXPECT_FALSE(a.FaultFor(TaskPhase::kReduce, 1, 0).corrupts());
}

TEST(FaultTest, InvalidSpeculationConfigRejected) {
  Dfs dfs;
  WriteInput(&dfs);
  auto spec = WordCountSpec("in", "out");
  spec.speculative_execution = true;
  spec.speculation_slowdown_factor = 1.0;
  Job<K, V> bad_factor(&dfs, spec);
  EXPECT_FALSE(bad_factor.Run().ok());

  auto spec2 = WordCountSpec("in", "out");
  spec2.max_task_attempts = 0;
  Job<K, V> bad_attempts(&dfs, spec2);
  EXPECT_FALSE(bad_attempts.Run().ok());
}

// Job::Run makes the engine checks JoinConfig::Validate makes
// (EngineOptions::Validate), prefixed with the job's name, and before it
// builds an executor.
TEST(FaultTest, JobRunSharesTheEngineChecks) {
  Dfs dfs;
  WriteInput(&dfs);
  auto threads = WordCountSpec("in", "out");
  threads.local_threads = SIZE_MAX;
  Job<K, V> threads_job(&dfs, threads);
  EXPECT_EQ(threads_job.Run().status().ToString(),
            "InvalidArgument: job 'wordcount': local_threads must be <= 1024");
  auto merge = WordCountSpec("in", "out");
  merge.merge_factor = 1;
  Job<K, V> merge_job(&dfs, merge);
  EXPECT_EQ(merge_job.Run().status().ToString(),
            "InvalidArgument: job 'wordcount': merge_factor must be >= 2");
  EXPECT_FALSE(dfs.Exists("out"));
}

// ---- Retry and speculation, run on each phase ----
//
// Map and reduce tasks share one attempt ladder: a crashed attempt
// re-runs under max_task_attempts, and a straggler gets a speculative
// backup that commits only if it finishes first. Each case below runs
// with the faulted task in the map phase and again in the reduce phase.

class FaultPhaseTest : public ::testing::TestWithParam<TaskPhase> {
 protected:
  TaskPhase phase() const { return GetParam(); }
  TaskPhase other_phase() const {
    return phase() == TaskPhase::kMap ? TaskPhase::kReduce : TaskPhase::kMap;
  }
  static const TaskMetrics& TaskOf(const JobMetrics& metrics, TaskPhase phase,
                                   size_t task) {
    return phase == TaskPhase::kMap ? metrics.map_tasks[task]
                                    : metrics.reduce_tasks[task];
  }
  // A scripted fault on `task` of the phase under test.
  FaultSpec Fault(size_t task, uint32_t first_attempt) const {
    return FaultSpec{.phase = phase(),
                     .task_id = task,
                     .first_attempt = first_attempt,
                     .failing_attempts = 1};
  }
  // A plan whose other phase is stabilized (see StabilizePhase), so only
  // the phase under test can speculate.
  std::shared_ptr<FaultPlan> SpeculationPlan() const {
    auto plan = std::make_shared<FaultPlan>();
    StabilizePhase(plan.get(), other_phase(), 3);
    return plan;
  }
};

TEST_P(FaultPhaseTest, StragglerGetsSpeculativeBackupThatWins) {
  Baseline baseline = RunBaseline();
  Dfs dfs;
  WriteInput(&dfs);
  auto plan = SpeculationPlan();
  FaultSpec straggle = Fault(2, 0);
  straggle.extra_seconds = 50.0;
  plan->faults.push_back(straggle);
  auto spec = WordCountSpec("in", "out");
  spec.fault_plan = plan;
  spec.speculative_execution = true;
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  EXPECT_EQ(OutputLines(dfs, "out"), baseline.output);
  EXPECT_EQ(metrics->counters.Snapshot(), baseline.counters);
  const TaskMetrics& task = TaskOf(*metrics, phase(), 2);
  EXPECT_TRUE(task.speculative_launched);
  EXPECT_TRUE(task.speculative_won);
  EXPECT_EQ(task.attempts, 2u);
  EXPECT_GT(task.speculative_loser_seconds, 0.0);
  EXPECT_LT(task.speculative_loser_seconds, 1.0);
  EXPECT_LT(task.seconds, 1.0);
  EXPECT_EQ(metrics->speculative_launched, 1u);
  EXPECT_EQ(metrics->speculative_wins, 1u);
}

TEST_P(FaultPhaseTest, SlowBackupLosesToPrimary) {
  Baseline baseline = RunBaseline();
  Dfs dfs;
  WriteInput(&dfs);
  auto plan = SpeculationPlan();
  FaultSpec straggle = Fault(0, 0);
  straggle.extra_seconds = 50.0;
  FaultSpec slower_backup = Fault(0, 1);
  slower_backup.extra_seconds = 200.0;
  plan->faults.push_back(straggle);
  plan->faults.push_back(slower_backup);
  auto spec = WordCountSpec("in", "out");
  spec.fault_plan = plan;
  spec.speculative_execution = true;
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  EXPECT_EQ(OutputLines(dfs, "out"), baseline.output);
  EXPECT_EQ(metrics->counters.Snapshot(), baseline.counters);
  const TaskMetrics& task = TaskOf(*metrics, phase(), 0);
  EXPECT_TRUE(task.speculative_launched);
  EXPECT_FALSE(task.speculative_won);
  EXPECT_EQ(task.attempts, 2u);
  EXPECT_GE(task.seconds, 50.0);
  // Killed at the primary's commit, long before its 200 seconds.
  EXPECT_GE(task.speculative_loser_seconds, 40.0);
  EXPECT_LT(task.speculative_loser_seconds, 100.0);
  EXPECT_EQ(metrics->speculative_wins, 0u);
}

TEST_P(FaultPhaseTest, CrashedBackupLeavesPrimaryCommitStanding) {
  Baseline baseline = RunBaseline();
  Dfs dfs;
  WriteInput(&dfs);
  auto plan = SpeculationPlan();
  FaultSpec straggle = Fault(1, 0);
  straggle.extra_seconds = 50.0;
  FaultSpec crashing_backup = Fault(1, 1);
  crashing_backup.crash_after_records = 0;
  plan->faults.push_back(straggle);
  plan->faults.push_back(crashing_backup);
  auto spec = WordCountSpec("in", "out");
  spec.fault_plan = plan;
  spec.speculative_execution = true;
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  EXPECT_EQ(OutputLines(dfs, "out"), baseline.output);
  EXPECT_EQ(metrics->counters.Snapshot(), baseline.counters);
  const TaskMetrics& task = TaskOf(*metrics, phase(), 1);
  EXPECT_TRUE(task.speculative_launched);
  EXPECT_FALSE(task.speculative_won);
  EXPECT_EQ(task.attempts, 2u);
  EXPECT_EQ(task.failed_attempts, 0u);
  EXPECT_GE(task.seconds, 50.0);
  EXPECT_GT(task.speculative_loser_seconds, 0.0);
  EXPECT_EQ(metrics->speculative_wins, 0u);
}

TEST_P(FaultPhaseTest, RetryChainThenSpeculationComposes) {
  Baseline baseline = RunBaseline();
  Dfs dfs;
  WriteInput(&dfs);
  auto plan = SpeculationPlan();
  // Attempt 0 crashes; attempt 1 commits but straggles; the backup
  // (attempt 2) is clean and wins.
  FaultSpec crash = Fault(1, 0);
  crash.crash_after_records = 0;
  FaultSpec straggle = Fault(1, 1);
  straggle.extra_seconds = 50.0;
  plan->faults.push_back(crash);
  plan->faults.push_back(straggle);
  auto spec = WordCountSpec("in", "out");
  spec.fault_plan = plan;
  spec.speculative_execution = true;
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  EXPECT_EQ(OutputLines(dfs, "out"), baseline.output);
  EXPECT_EQ(metrics->counters.Snapshot(), baseline.counters);
  const TaskMetrics& task = TaskOf(*metrics, phase(), 1);
  EXPECT_EQ(task.attempts, 3u);
  EXPECT_EQ(task.failed_attempts, 1u);
  EXPECT_GT(task.failed_attempt_seconds, 0.0);
  EXPECT_TRUE(task.speculative_won);
  EXPECT_LT(task.speculative_loser_seconds, 1.0);
  EXPECT_EQ(metrics->failed_attempts, 1u);
}

TEST_P(FaultPhaseTest, MaxAttemptsBoundsTheRetryChain) {
  auto make_spec = [this](uint32_t failing) {
    auto plan = std::make_shared<FaultPlan>();
    FaultSpec crash = Fault(0, 0);
    crash.failing_attempts = failing;
    crash.crash_after_records = 0;
    plan->faults.push_back(crash);
    auto spec = WordCountSpec("in", "out");
    spec.fault_plan = plan;
    spec.max_task_attempts = 2;
    return spec;
  };

  // Two crashing attempts exhaust a budget of two.
  Dfs failing_dfs;
  WriteInput(&failing_dfs);
  Job<K, V> failing_job(&failing_dfs, make_spec(2));
  EXPECT_FALSE(failing_job.Run().ok());
  EXPECT_FALSE(failing_dfs.Exists("out"));
  // One crashing attempt leaves room for the retry to commit.
  Baseline baseline = RunBaseline();
  Dfs dfs;
  WriteInput(&dfs);
  Job<K, V> recovering_job(&dfs, make_spec(1));
  auto metrics = recovering_job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(OutputLines(dfs, "out"), baseline.output);
  EXPECT_EQ(metrics->counters.Snapshot(), baseline.counters);
  EXPECT_EQ(TaskOf(*metrics, phase(), 0).attempts, 2u);
  EXPECT_EQ(TaskOf(*metrics, phase(), 0).failed_attempts, 1u);
  EXPECT_EQ(TaskOf(*metrics, other_phase(), 0).attempts, 1u);
}

TEST_P(FaultPhaseTest, PermanentFailureFailsJobWithoutOutput) {
  Dfs dfs;
  WriteInput(&dfs);
  auto plan = std::make_shared<FaultPlan>();
  FaultSpec crash = Fault(1, 0);
  crash.failing_attempts = FaultSpec::kAllAttempts;
  crash.crash_after_records = 0;
  plan->faults.push_back(crash);
  auto spec = WordCountSpec("in", "out");
  spec.fault_plan = plan;
  spec.max_task_attempts = 3;
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_FALSE(metrics.ok());
  const std::string message = metrics.status().ToString();
  EXPECT_NE(message.find(std::string(TaskPhaseName(phase())) + " task 1"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("3 attempts"), std::string::npos) << message;
  EXPECT_FALSE(dfs.Exists("out"));
}

INSTANTIATE_TEST_SUITE_P(BothPhases, FaultPhaseTest,
                         ::testing::Values(TaskPhase::kMap,
                                           TaskPhase::kReduce),
                         [](const ::testing::TestParamInfo<TaskPhase>& info) {
                           return std::string(TaskPhaseName(info.param));
                         });

// ---- Pinned attempt bookkeeping under a seeded crash-and-corrupt plan ----
//
// The committed per-task bookkeeping (attempts, failed attempts, verified
// bytes, detections, contract checks), the job totals and the job
// counters of a faulted run are a deterministic function of the plan.
// These goldens were captured before the map and reduce phases shared one
// attempt ladder; they pin that the shared ladder tallies exactly as the
// two per-phase copies did. Wall-derived seconds are left out.
//
// The "none" case ran on typed (text) runs until every spill run became
// an encoded run block. Only its byte meters moved, to the blocks'
// encoded sizes: the per-task iv values (m0 1180 -> 398, m1 590 -> 199,
// m2 1180 -> 398, m3 1770 -> 597, r0 722 -> 294, r1 2868 -> 1104,
// r2 2566 -> 922), the job's verified bytes 15382 -> 8418, and the new
// codec byte meters. Attempts, failures, detections and contract checks
// did not move.

// 240 lines of words drawn from a 40-word vocabulary by a fixed LCG.
std::vector<std::string> GoldenInput() {
  std::vector<std::string> lines;
  uint64_t state = 12345;
  for (int i = 0; i < 240; ++i) {
    std::string line;
    const int words = 3 + i % 5;
    for (int w = 0; w < words; ++w) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      if (!line.empty()) line += ' ';
      line += "w" + std::to_string((state >> 33) % 40);
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

std::string TaskLedger(const JobMetrics& metrics) {
  std::string out;
  auto add = [&out](const char* phase, size_t i, const TaskMetrics& t) {
    out += std::string(phase) + std::to_string(i) +
           " a=" + std::to_string(t.attempts) +
           " f=" + std::to_string(t.failed_attempts) +
           " iv=" + std::to_string(t.integrity_bytes_verified) +
           " cd=" + std::to_string(t.corruption_detected) +
           " cc=" + std::to_string(t.contract_checks) + "\n";
  };
  for (size_t i = 0; i < metrics.map_tasks.size(); ++i) {
    add("m", i, metrics.map_tasks[i]);
  }
  for (size_t i = 0; i < metrics.reduce_tasks.size(); ++i) {
    add("r", i, metrics.reduce_tasks[i]);
  }
  out += "job f=" + std::to_string(metrics.failed_attempts) +
         " iv=" + std::to_string(metrics.integrity_bytes_verified) +
         " cd=" + std::to_string(metrics.corruption_detected) +
         " cc=" + std::to_string(metrics.contract_checks) +
         " logical=" + std::to_string(metrics.codec_logical_bytes) +
         " encoded=" + std::to_string(metrics.codec_encoded_bytes) + "\n";
  for (const auto& [name, value] : metrics.counters.Snapshot()) {
    out += name + "=" + std::to_string(value) + "\n";
  }
  return out;
}

struct GoldenCase {
  const char* name;
  BlockCodec codec;
  uint64_t sort_buffer_bytes;
  const char* ledger;
};

class AttemptLedgerGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(AttemptLedgerGoldenTest, CrashAndCorruptPlanMatchesPinnedLedger) {
  const GoldenCase& c = GetParam();
  auto plan = std::make_shared<FaultPlan>();
  plan->seed = 11;
  plan->crash_probability = 0.4;
  plan->crash_after_records = 3;
  plan->crash_failing_attempts = 2;
  plan->corrupt_probability = 0.4;
  plan->corrupt_failing_attempts = 2;
  ASSERT_TRUE(plan->RecoverableWith(4, /*verify_integrity=*/true));

  auto run = [&c](std::shared_ptr<const FaultPlan> faults, size_t threads,
                  std::vector<std::string>* output) {
    Dfs dfs;
    EXPECT_TRUE(dfs.WriteFile("in", GoldenInput()).ok());
    auto spec = WordCountSpec("in", "out");
    spec.num_map_tasks = 4;
    spec.num_reduce_tasks = 3;
    spec.combiner = [](const K& key, std::vector<V>&& values,
                       Emitter<K, V>* out) {
      V total = 0;
      for (V v : values) total += v;
      out->Emit(key, total);
    };
    spec.local_threads = threads;
    spec.fault_plan = std::move(faults);
    spec.verify_integrity = true;
    spec.check_contracts = true;
    spec.contract_sample_every = 4;
    spec.block_codec = c.codec;
    spec.sort_buffer_bytes = c.sort_buffer_bytes;
    spec.merge_factor = 2;
    Job<K, V> job(&dfs, spec);
    auto metrics = job.Run();
    EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
    *output = OutputLines(dfs, "out");
    return metrics.ok() ? TaskLedger(*metrics) : std::string();
  };

  std::vector<std::string> clean_output;
  run(nullptr, 1, &clean_output);
  for (size_t threads : {1, 3}) {
    std::vector<std::string> output;
    const std::string ledger = run(plan, threads, &output);
    EXPECT_EQ(output, clean_output) << "threads=" << threads;
    EXPECT_EQ(ledger, c.ledger) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, AttemptLedgerGoldenTest,
    ::testing::Values(
        GoldenCase{"none", BlockCodec::kNone, 0,
                   R"(m0 a=3 f=2 iv=398 cd=1 cc=15497
m1 a=3 f=2 iv=199 cd=0 cc=15482
m2 a=2 f=1 iv=398 cd=1 cc=15501
m3 a=3 f=2 iv=597 cd=2 cc=15507
r0 a=1 f=0 iv=294 cd=0 cc=44
r1 a=3 f=2 iv=1104 cd=1 cc=60
r2 a=3 f=2 iv=922 cd=0 cc=56
job f=11 iv=8418 cd=5 cc=62147 logical=1520 encoded=1592
mapper.lines=240
reducer.groups=40
)"},
        GoldenCase{"binary_fjlz_spill", BlockCodec::kFjlz, 256,
                   R"(m0 a=3 f=2 iv=2662 cd=1 cc=15857
m1 a=3 f=2 iv=1387 cd=0 cc=15842
m2 a=2 f=1 iv=2628 cd=1 cc=15846
m3 a=3 f=2 iv=4074 cd=2 cc=15862
r0 a=1 f=0 iv=1609 cd=0 cc=44
r1 a=3 f=2 iv=6537 cd=1 cc=60
r2 a=3 f=2 iv=5326 cd=0 cc=56
job f=11 iv=28729 cd=5 cc=63567 logical=9592 encoded=10780
mapper.lines=240
reducer.groups=40
)"}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace fj::mr
