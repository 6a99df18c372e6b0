// Data-integrity contract tests for the engine: CorruptRecord faults are
// detected at the checksum boundaries when JobSpec::verify_integrity is
// on, converted into transient task failures, and retried to a
// byte-identical result; with verification off the corruption flows
// through silently (the failure mode the layer exists to prevent);
// corrupted *inputs* fail the job up front with DataLoss; malformed input
// lines are quarantined to "<output>.bad" under max_skipped_records; and
// output commits are atomic (no partial file, no leaked temp).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "common/string_util.h"
#include "mapreduce/dfs.h"
#include "mapreduce/fault.h"
#include "mapreduce/job.h"

namespace fj::mr {
namespace {

using K = std::string;
using V = uint64_t;

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

// Quarantines lines starting with '!' as malformed, counts the rest.
class PickyMapper : public Mapper<K, V> {
 public:
  void Map(const InputRecord& record, Emitter<K, V>* out,
           TaskContext* ctx) override {
    if (!record.line->empty() && (*record.line)[0] == '!') {
      ctx->QuarantineRecord(*record.line);
      return;
    }
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

std::vector<std::string> OutputLines(const Dfs& dfs, const std::string& file) {
  auto lines = dfs.ReadFile(file);
  EXPECT_TRUE(lines.ok()) << lines.status().ToString();
  return lines.ok() ? *lines.value() : std::vector<std::string>{};
}

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

std::shared_ptr<FaultPlan> CorruptPlan(TaskPhase phase, size_t task,
                                       CorruptTarget target,
                                       uint32_t failing_attempts = 1) {
  auto plan = std::make_shared<FaultPlan>();
  plan->faults.push_back(FaultSpec{.phase = phase,
                                   .task_id = task,
                                   .first_attempt = 0,
                                   .failing_attempts = failing_attempts,
                                   .corrupt_target = target,
                                   .corrupt_salt = 7});
  return plan;
}

TEST(IntegrityTest, MapOutputCorruptionDetectedAndRetriedToIdenticalResult) {
  Baseline baseline = RunBaseline();

  Dfs dfs;
  WriteInput(&dfs);
  auto spec = WordCountSpec("in", "out");
  spec.verify_integrity = true;
  spec.fault_plan = CorruptPlan(TaskPhase::kMap, 1, CorruptTarget::kMapOutput);
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  EXPECT_EQ(OutputLines(dfs, "out"), baseline.output);
  // The corrupted attempt was caught at map commit and re-run.
  EXPECT_EQ(metrics->map_tasks[1].attempts, 2u);
  EXPECT_EQ(metrics->map_tasks[1].failed_attempts, 1u);
  EXPECT_EQ(metrics->map_tasks[1].corruption_detected, 1u);
  EXPECT_EQ(metrics->corruption_detected, 1u);
  EXPECT_GT(metrics->integrity_bytes_verified, 0u);
}

TEST(IntegrityTest, SpillCorruptionDetectedAndRetriedToIdenticalResult) {
  Baseline baseline = RunBaseline();

  Dfs dfs;
  WriteInput(&dfs);
  auto spec = WordCountSpec("in", "out");
  spec.verify_integrity = true;
  spec.sort_buffer_bytes = 64;  // force map-side spills
  spec.fault_plan = CorruptPlan(TaskPhase::kMap, 0, CorruptTarget::kSpill);
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  EXPECT_EQ(OutputLines(dfs, "out"), baseline.output);
  EXPECT_GE(metrics->map_tasks[0].attempts, 2u);
  EXPECT_GE(metrics->corruption_detected, 1u);
}

TEST(IntegrityTest, ReduceOutputCorruptionDetectedAndRetried) {
  Baseline baseline = RunBaseline();

  Dfs dfs;
  WriteInput(&dfs);
  auto spec = WordCountSpec("in", "out");
  spec.verify_integrity = true;
  spec.fault_plan =
      CorruptPlan(TaskPhase::kReduce, 0, CorruptTarget::kReduceOutput);
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  EXPECT_EQ(OutputLines(dfs, "out"), baseline.output);
  EXPECT_EQ(metrics->reduce_tasks[0].attempts, 2u);
  EXPECT_EQ(metrics->reduce_tasks[0].corruption_detected, 1u);
}

TEST(IntegrityTest, VerificationOffLetsCorruptionThroughSilently) {
  Baseline baseline = RunBaseline();

  Dfs dfs;
  WriteInput(&dfs);
  auto spec = WordCountSpec("in", "out");
  ASSERT_FALSE(spec.verify_integrity);
  spec.fault_plan = CorruptPlan(TaskPhase::kMap, 1, CorruptTarget::kMapOutput);
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  // The flip lands in a payload byte of one run block, a count varint
  // (1 becomes 17), which decodes cleanly; a flip in a block's framing
  // would fail to decode instead, a counted detection. So the job
  // "succeeds" — one attempt each, nothing detected — but one output line
  // is WRONG. This is exactly what verify_integrity prevents.
  const std::vector<std::string> output = OutputLines(dfs, "out");
  ASSERT_EQ(output.size(), baseline.output.size());
  size_t wrong_lines = 0;
  for (size_t i = 0; i < output.size(); ++i) {
    if (output[i] != baseline.output[i]) ++wrong_lines;
  }
  EXPECT_EQ(wrong_lines, 1u);
  EXPECT_EQ(metrics->map_tasks[1].attempts, 1u);
  EXPECT_EQ(metrics->corruption_detected, 0u);
}

TEST(IntegrityTest, PermanentCorruptionFailsStructuredWithNoOutput) {
  Dfs dfs;
  WriteInput(&dfs);
  auto spec = WordCountSpec("in", "out");
  spec.verify_integrity = true;
  spec.max_task_attempts = 3;
  spec.fault_plan = CorruptPlan(TaskPhase::kMap, 1, CorruptTarget::kMapOutput,
                                FaultSpec::kAllAttempts);
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kInternal);
  // Atomic commit: neither the output nor its temp file exists.
  EXPECT_FALSE(dfs.Exists("out"));
  EXPECT_FALSE(dfs.Exists("out.__commit"));
}

TEST(IntegrityTest, CorruptedInputFailsUpFrontWithDataLoss) {
  Dfs dfs;
  WriteInput(&dfs);
  ASSERT_TRUE(dfs.CorruptByteForTest("in", 3).ok());
  auto spec = WordCountSpec("in", "out");
  spec.verify_integrity = true;
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kDataLoss);
  EXPECT_FALSE(dfs.Exists("out"));

  // Without verification the same job reads the corrupted bytes happily.
  Dfs dfs2;
  WriteInput(&dfs2);
  ASSERT_TRUE(dfs2.CorruptByteForTest("in", 3).ok());
  Job<K, V> job2(&dfs2, WordCountSpec("in", "out"));
  EXPECT_TRUE(job2.Run().ok());
}

TEST(IntegrityTest, ProbabilisticCorruptionRecoversWithVerificationOn) {
  Baseline baseline = RunBaseline();

  Dfs dfs;
  WriteInput(&dfs);
  auto plan = std::make_shared<FaultPlan>();
  plan->seed = 29;
  plan->corrupt_probability = 0.5;
  plan->corrupt_failing_attempts = 2;
  auto spec = WordCountSpec("in", "out");
  spec.verify_integrity = true;
  ASSERT_TRUE(plan->RecoverableWith(spec.max_task_attempts, true));
  spec.fault_plan = plan;
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(OutputLines(dfs, "out"), baseline.output);
  EXPECT_GT(metrics->corruption_detected, 0u);
}

TEST(IntegrityTest, QuarantinedLinesLandInBadFileNotOutput) {
  Dfs dfs;
  ASSERT_TRUE(
      dfs.WriteFile("in", {"a b", "!broken 1", "b c", "!broken 2", "a"}).ok());
  auto spec = WordCountSpec("in", "out");
  spec.mapper_factory = [] { return std::make_unique<PickyMapper>(); };
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  EXPECT_EQ(metrics->records_skipped, 2u);
  auto bad = dfs.ReadFile("out.bad");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(*bad.value(),
            (std::vector<std::string>{"!broken 1", "!broken 2"}));
  // The good lines were still counted normally.
  for (const std::string& line : OutputLines(dfs, "out")) {
    EXPECT_EQ(line.find('!'), std::string::npos) << line;
  }
}

TEST(IntegrityTest, NoBadFileWhenNothingWasQuarantined) {
  Dfs dfs;
  WriteInput(&dfs);
  Job<K, V> job(&dfs, WordCountSpec("in", "out"));
  ASSERT_TRUE(job.Run().ok());
  EXPECT_FALSE(dfs.Exists("out.bad"));
}

TEST(IntegrityTest, SkippedRecordCapFailsTheJob) {
  Dfs dfs;
  ASSERT_TRUE(
      dfs.WriteFile("in", {"a b", "!broken 1", "b c", "!broken 2", "a"}).ok());
  auto spec = WordCountSpec("in", "out");
  spec.mapper_factory = [] { return std::make_unique<PickyMapper>(); };
  spec.max_skipped_records = 1;
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kDataLoss);
  EXPECT_FALSE(dfs.Exists("out"));
}

TEST(IntegrityTest, QuarantineIdenticalAcrossCrashRetries) {
  // A crashing-then-retried map task must not quarantine its bad lines
  // twice: only the committed attempt's quarantine list counts.
  Dfs dfs;
  ASSERT_TRUE(
      dfs.WriteFile("in", {"!x", "a b", "!y", "b", "c d", "!z"}).ok());
  auto plan = std::make_shared<FaultPlan>();
  plan->faults.push_back(FaultSpec{.phase = TaskPhase::kMap,
                                   .task_id = 0,
                                   .first_attempt = 0,
                                   .failing_attempts = 2,
                                   .crash_after_records = 1});
  auto spec = WordCountSpec("in", "out");
  spec.mapper_factory = [] { return std::make_unique<PickyMapper>(); };
  spec.fault_plan = plan;
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->records_skipped, 3u);
  EXPECT_EQ(*dfs.ReadFile("out.bad").value(),
            (std::vector<std::string>{"!x", "!y", "!z"}));
}

TEST(IntegrityTest, OutputCommitIsAtomicUnderPermanentReduceFailure) {
  Dfs dfs;
  WriteInput(&dfs);
  auto plan = std::make_shared<FaultPlan>();
  plan->faults.push_back(FaultSpec{.phase = TaskPhase::kReduce,
                                   .task_id = 1,
                                   .first_attempt = 0,
                                   .failing_attempts = FaultSpec::kAllAttempts,
                                   .crash_after_records = 0});
  auto spec = WordCountSpec("in", "out");
  spec.fault_plan = plan;
  Job<K, V> job(&dfs, spec);
  ASSERT_FALSE(job.Run().ok());
  EXPECT_FALSE(dfs.Exists("out"));
  EXPECT_FALSE(dfs.Exists("out.__commit"));
  EXPECT_FALSE(dfs.Exists("out.bad"));
}

TEST(IntegrityTest, VerifiedRunIsByteIdenticalToUnverifiedRun) {
  // Turning verification ON must not change the output of a clean run.
  Baseline baseline = RunBaseline();
  Dfs dfs;
  WriteInput(&dfs);
  auto spec = WordCountSpec("in", "out");
  spec.verify_integrity = true;
  Job<K, V> job(&dfs, spec);
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(OutputLines(dfs, "out"), baseline.output);
  EXPECT_EQ(metrics->corruption_detected, 0u);
  EXPECT_GT(metrics->integrity_bytes_verified, 0u);
}

}  // namespace
}  // namespace fj::mr