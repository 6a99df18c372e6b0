// Pipeline-level fault-recovery golden tests: the full three-stage join —
// self and R-S, every algorithm name, with and without spilling — must
// produce byte-identical output under any recoverable fault plan
// (crashes retried, stragglers speculated, the sweeps' plans too) as in
// the fault-free run. A permanent fault scoped to one stage's job must
// fail the whole pipeline with a clean Status and write no join output.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "data/generator.h"
#include "fuzzyjoin/fuzzyjoin.h"

namespace fj::join {
namespace {

std::vector<std::string> SelfInputLines() {
  auto config = data::DblpLikeConfig(250, 11);
  config.payload_bytes = 24;
  return data::RecordsToLines(data::GenerateRecords(config));
}

std::vector<std::string> OuterInputLines() {
  auto config = data::CiteseerxLikeConfig(180, 29);
  config.payload_bytes = 24;
  return data::RecordsToLines(data::GenerateRecords(config));
}

JoinConfig BaseConfig(Stage1Algorithm s1, Stage2Algorithm s2,
                      Stage3Algorithm s3, uint64_t sort_buffer,
                      mr::BlockCodec codec = mr::BlockCodec::kNone) {
  JoinConfig config;
  config.stage1 = s1;
  config.stage2 = s2;
  config.stage3 = s3;
  config.num_map_tasks = 4;
  config.num_reduce_tasks = 3;
  config.sort_buffer_bytes = sort_buffer;
  config.block_codec = codec;
  return config;
}

// A plan that exercises every recovery path: most attempts crash early,
// half the tasks straggle hard enough to draw speculative backups.
std::shared_ptr<const mr::FaultPlan> ChaosPlan() {
  auto plan = std::make_shared<mr::FaultPlan>();
  plan->seed = 13;
  plan->crash_probability = 0.6;
  plan->crash_after_records = 4;
  plan->crash_failing_attempts = 2;
  plan->straggler_probability = 0.4;
  plan->straggler_extra_seconds = 25.0;
  return plan;
}

const std::vector<std::string>& Lines(const mr::Dfs& dfs,
                                      const std::string& file) {
  auto lines = dfs.ReadFile(file);
  EXPECT_TRUE(lines.ok());
  return *lines.value();
}

// One job counter summed over the pipeline.
uint64_t Total(const JoinRunResult& result, uint64_t mr::JobMetrics::*field) {
  uint64_t total = 0;
  for (const auto& stage : result.stages) {
    for (const auto& job : stage.jobs) total += job.*field;
  }
  return total;
}

// Tasks of the run whose first attempt `plan` slows. The draw is a pure
// function of (plan, job, phase, task), as in the engine's injector.
size_t StraggledTasks(const JoinRunResult& result, const mr::FaultPlan& plan) {
  size_t straggled = 0;
  for (const auto& stage : result.stages) {
    for (const auto& job : stage.jobs) {
      const mr::FaultInjector injector(&plan, job.job_name);
      for (auto phase : {mr::TaskPhase::kMap, mr::TaskPhase::kReduce}) {
        const size_t tasks = phase == mr::TaskPhase::kMap
                                 ? job.map_tasks.size()
                                 : job.reduce_tasks.size();
        for (size_t t = 0; t < tasks; ++t) {
          straggled += injector.FaultFor(phase, t, 0).slowdown > 1;
        }
      }
    }
  }
  return straggled;
}

// The golden case's faulted run; by default the chaos plan on 4 x 3 tasks.
struct FaultCase {
  std::string name = "chaos";
  std::shared_ptr<const mr::FaultPlan> plan = ChaosPlan();
  bool speculate = true;
  bool verify_integrity = false;
  size_t map_tasks = 4;
  size_t reduce_tasks = 3;
};

void PrintTo(const FaultCase& fault, std::ostream* os) { *os << fault.name; }

// A transient CorruptRecord plan aimed at one target kind in every job of
// the pipeline: map-phase targets hit map task 1, reduce output hits
// reduce task 0.
std::shared_ptr<const mr::FaultPlan> CorruptionPlan(mr::CorruptTarget target) {
  auto plan = std::make_shared<mr::FaultPlan>();
  mr::TaskPhase phase = target == mr::CorruptTarget::kReduceOutput
                            ? mr::TaskPhase::kReduce
                            : mr::TaskPhase::kMap;
  plan->faults.push_back(
      mr::FaultSpec{.phase = phase,
                    .task_id = phase == mr::TaskPhase::kMap ? 1u : 0u,
                    .first_attempt = 0,
                    .failing_attempts = 2,
                    .corrupt_target = target,
                    .corrupt_salt = 41});
  return plan;
}

void RunSelfGoldenCase(Stage1Algorithm s1, Stage2Algorithm s2,
                       Stage3Algorithm s3, uint64_t sort_buffer,
                       mr::BlockCodec codec = mr::BlockCodec::kNone,
                       const FaultCase& fault = {}) {
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", SelfInputLines()).ok());

  auto clean_config = BaseConfig(s1, s2, s3, sort_buffer, codec);
  clean_config.num_map_tasks = fault.map_tasks;
  clean_config.num_reduce_tasks = fault.reduce_tasks;
  auto clean = RunSelfJoin(&dfs, "records", "clean", clean_config);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  auto faulted_config = clean_config;
  faulted_config.fault_plan = fault.plan;
  faulted_config.speculative_execution = fault.speculate;
  faulted_config.verify_integrity = fault.verify_integrity;
  const mr::FaultPlan& plan = *fault.plan;
  ASSERT_TRUE(plan.RecoverableWith(faulted_config.max_task_attempts,
                                   fault.verify_integrity));
  auto faulted = RunSelfJoin(&dfs, "records", "faulted", faulted_config);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();

  // The plan bit: tasks crashed and were retried, stragglers were drawn
  // among the tasks that ran, corruption was caught...
  if (plan.crash_probability > 0) {
    EXPECT_GT(Total(*faulted, &mr::JobMetrics::failed_attempts), 0u);
  }
  if (plan.straggler_probability > 0) {
    EXPECT_GT(StraggledTasks(*faulted, plan), 0u);
  }
  if (plan.corrupt_probability > 0) {
    EXPECT_GT(Total(*faulted, &mr::JobMetrics::corruption_detected), 0u);
  }
  // ...and the join plus every kept intermediate is still byte-identical.
  EXPECT_EQ(Lines(dfs, clean->output_file), Lines(dfs, faulted->output_file));
  EXPECT_EQ(Lines(dfs, clean->ordering_file),
            Lines(dfs, faulted->ordering_file));
  EXPECT_EQ(Lines(dfs, clean->rid_pairs_file),
            Lines(dfs, faulted->rid_pairs_file));
}

void RunRSGoldenCase(Stage1Algorithm s1, Stage2Algorithm s2,
                     Stage3Algorithm s3, uint64_t sort_buffer,
                     mr::BlockCodec codec = mr::BlockCodec::kNone) {
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("r", SelfInputLines()).ok());
  ASSERT_TRUE(dfs.WriteFile("s", OuterInputLines()).ok());

  auto clean_config = BaseConfig(s1, s2, s3, sort_buffer, codec);
  auto clean = RunRSJoin(&dfs, "r", "s", "clean", clean_config);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  auto faulted_config = BaseConfig(s1, s2, s3, sort_buffer, codec);
  faulted_config.fault_plan = ChaosPlan();
  faulted_config.speculative_execution = true;
  auto faulted = RunRSJoin(&dfs, "r", "s", "faulted", faulted_config);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();

  EXPECT_GT(Total(*faulted, &mr::JobMetrics::failed_attempts), 0u);
  EXPECT_EQ(Lines(dfs, clean->output_file), Lines(dfs, faulted->output_file));
  EXPECT_EQ(Lines(dfs, clean->rid_pairs_file),
            Lines(dfs, faulted->rid_pairs_file));
}

// Four combos cover all six algorithm names; spilling alternates so both
// shuffle paths run under faults.
TEST(FaultPipelineTest, SelfBtoBkBrjUnbounded) {
  RunSelfGoldenCase(Stage1Algorithm::kBTO, Stage2Algorithm::kBK,
                    Stage3Algorithm::kBRJ, 0);
}

TEST(FaultPipelineTest, SelfBtoPkOprjSpilling) {
  RunSelfGoldenCase(Stage1Algorithm::kBTO, Stage2Algorithm::kPK,
                    Stage3Algorithm::kOPRJ, 256);
}

TEST(FaultPipelineTest, SelfOptoPkBrjSpilling) {
  RunSelfGoldenCase(Stage1Algorithm::kOPTO, Stage2Algorithm::kPK,
                    Stage3Algorithm::kBRJ, 256);
}

TEST(FaultPipelineTest, SelfOptoBkOprjUnbounded) {
  RunSelfGoldenCase(Stage1Algorithm::kOPTO, Stage2Algorithm::kBK,
                    Stage3Algorithm::kOPRJ, 0);
}

// The fault and integrity sweeps' plans on a 10-node cluster's task shape;
// the plan's defaults (crashes after up to 8 records, 2 failing attempts)
// are theirs.
FaultCase SweepCase(std::string name, double crash_p, double slowdown,
                    bool speculate, double corrupt_p = 0) {
  auto plan = std::make_shared<mr::FaultPlan>();
  plan->seed = corrupt_p > 0 ? 11 : 7;
  plan->crash_probability = crash_p;
  if (slowdown > 1) {
    plan->straggler_probability = 0.15;
    plan->straggler_slowdown = slowdown;
    plan->straggler_extra_seconds = 0.002 * slowdown;
  }
  plan->corrupt_probability = corrupt_p;
  return FaultCase{.name = std::move(name), .plan = std::move(plan),
                   .speculate = speculate, .verify_integrity = corrupt_p > 0,
                   .map_tasks = 80, .reduce_tasks = 40};
}

class SweepPlanTest : public ::testing::TestWithParam<FaultCase> {};

TEST_P(SweepPlanTest, SelfBtoPkBrjStaysByteIdentical) {
  RunSelfGoldenCase(Stage1Algorithm::kBTO, Stage2Algorithm::kPK,
                    Stage3Algorithm::kBRJ, 0, mr::BlockCodec::kNone,
                    GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    FaultPipelineTest, SweepPlanTest,
    ::testing::Values(SweepCase("crash_p_05", 0.05, 1, false),
                      SweepCase("crash_p_15", 0.15, 1, false),
                      SweepCase("crash_p_30", 0.30, 1, false),
                      SweepCase("crash_p_50", 0.50, 1, false),
                      SweepCase("straggle_x2", 0, 2, false),
                      SweepCase("straggle_x2_spec", 0, 2, true),
                      SweepCase("straggle_x4", 0, 4, false),
                      SweepCase("straggle_x4_spec", 0, 4, true),
                      SweepCase("straggle_x8", 0, 8, false),
                      SweepCase("straggle_x8_spec", 0, 8, true),
                      SweepCase("combined_spec", 0.15, 4, true),
                      SweepCase("corrupt_p_05", 0, 1, false, 0.05),
                      SweepCase("corrupt_p_15", 0, 1, false, 0.15),
                      SweepCase("corrupt_p_30", 0, 1, false, 0.30)),
    ::testing::PrintToStringParamName());

TEST(FaultPipelineTest, RSBtoPkBrjUnbounded) {
  RunRSGoldenCase(Stage1Algorithm::kBTO, Stage2Algorithm::kPK,
                  Stage3Algorithm::kBRJ, 0);
}

TEST(FaultPipelineTest, RSOptoBkOprjSpilling) {
  RunRSGoldenCase(Stage1Algorithm::kOPTO, Stage2Algorithm::kBK,
                  Stage3Algorithm::kOPRJ, 256);
}

// Codec axis: the same chaos plan against fjlz-compressed run blocks.
TEST(FaultPipelineTest, SelfBinaryFjlzChaosSpilling) {
  RunSelfGoldenCase(Stage1Algorithm::kBTO, Stage2Algorithm::kPK,
                    Stage3Algorithm::kBRJ, 256, mr::BlockCodec::kFjlz);
}

TEST(FaultPipelineTest, RSBinaryChaosUnbounded) {
  RunRSGoldenCase(Stage1Algorithm::kBTO, Stage2Algorithm::kPK,
                  Stage3Algorithm::kBRJ, 0, mr::BlockCodec::kFjlz);
}

// --- CorruptRecord matrix: self/R-S x spill on/off x corruption target.
// With verify_integrity on, every detected corruption becomes a transient
// retry and the join stays byte-identical to the clean run.

void RunSelfCorruptionCase(mr::CorruptTarget target, uint64_t sort_buffer,
                           mr::BlockCodec codec = mr::BlockCodec::kNone) {
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", SelfInputLines()).ok());

  auto clean_config = BaseConfig(Stage1Algorithm::kBTO, Stage2Algorithm::kPK,
                                 Stage3Algorithm::kBRJ, sort_buffer, codec);
  auto clean = RunSelfJoin(&dfs, "records", "clean", clean_config);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  auto config = BaseConfig(Stage1Algorithm::kBTO, Stage2Algorithm::kPK,
                           Stage3Algorithm::kBRJ, sort_buffer, codec);
  config.verify_integrity = true;
  auto plan = CorruptionPlan(target);
  // Corruption is only recoverable when something detects it.
  EXPECT_FALSE(plan->RecoverableWith(config.max_task_attempts, false));
  ASSERT_TRUE(plan->RecoverableWith(config.max_task_attempts, true));
  config.fault_plan = plan;

  auto corrupted = RunSelfJoin(&dfs, "records", "corrupted", config);
  ASSERT_TRUE(corrupted.ok()) << corrupted.status().ToString();
  EXPECT_GT(Total(*corrupted, &mr::JobMetrics::corruption_detected), 0u);
  EXPECT_GT(Total(*corrupted, &mr::JobMetrics::failed_attempts), 0u);
  EXPECT_EQ(Lines(dfs, clean->output_file),
            Lines(dfs, corrupted->output_file));
  EXPECT_EQ(Lines(dfs, clean->rid_pairs_file),
            Lines(dfs, corrupted->rid_pairs_file));
}

void RunRSCorruptionCase(mr::CorruptTarget target, uint64_t sort_buffer,
                         mr::BlockCodec codec = mr::BlockCodec::kNone) {
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("r", SelfInputLines()).ok());
  ASSERT_TRUE(dfs.WriteFile("s", OuterInputLines()).ok());

  auto clean_config = BaseConfig(Stage1Algorithm::kBTO, Stage2Algorithm::kPK,
                                 Stage3Algorithm::kBRJ, sort_buffer, codec);
  auto clean = RunRSJoin(&dfs, "r", "s", "clean", clean_config);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  auto config = BaseConfig(Stage1Algorithm::kBTO, Stage2Algorithm::kPK,
                           Stage3Algorithm::kBRJ, sort_buffer, codec);
  config.verify_integrity = true;
  config.fault_plan = CorruptionPlan(target);

  auto corrupted = RunRSJoin(&dfs, "r", "s", "corrupted", config);
  ASSERT_TRUE(corrupted.ok()) << corrupted.status().ToString();
  EXPECT_GT(Total(*corrupted, &mr::JobMetrics::corruption_detected), 0u);
  EXPECT_EQ(Lines(dfs, clean->output_file),
            Lines(dfs, corrupted->output_file));
}

TEST(FaultPipelineTest, SelfCorruptMapOutputUnbounded) {
  RunSelfCorruptionCase(mr::CorruptTarget::kMapOutput, 0);
}

TEST(FaultPipelineTest, SelfCorruptMapOutputSpilling) {
  RunSelfCorruptionCase(mr::CorruptTarget::kMapOutput, 256);
}

TEST(FaultPipelineTest, SelfCorruptReduceOutputUnbounded) {
  RunSelfCorruptionCase(mr::CorruptTarget::kReduceOutput, 0);
}

TEST(FaultPipelineTest, RSCorruptSpillSpilling) {
  RunRSCorruptionCase(mr::CorruptTarget::kMapOutput, 256);
}

// Codec axis: the injector flips a byte inside the fjlz-compressed run
// block — the checksum is defined over exactly those bytes, so detection
// must still fire and the join still match.
TEST(FaultPipelineTest, SelfBinaryCorruptEncodedSpillSpilling) {
  RunSelfCorruptionCase(mr::CorruptTarget::kMapOutput, 256,
                        mr::BlockCodec::kFjlz);
}

TEST(FaultPipelineTest, SelfBinaryCorruptMapOutputUnbounded) {
  RunSelfCorruptionCase(mr::CorruptTarget::kMapOutput, 0,
                        mr::BlockCodec::kFjlz);
}

TEST(FaultPipelineTest, RSBinaryCorruptReduceOutputSpilling) {
  RunRSCorruptionCase(mr::CorruptTarget::kReduceOutput, 256,
                      mr::BlockCodec::kFjlz);
}

TEST(FaultPipelineTest, RSCorruptReduceOutputUnbounded) {
  RunRSCorruptionCase(mr::CorruptTarget::kReduceOutput, 0);
}

TEST(FaultPipelineTest, CorruptionWithoutVerificationIsSilentlyWrong) {
  // The negative control: same corruption, verification off. The pipeline
  // "succeeds" — and the RID pairs are wrong. This is the failure mode
  // verify_integrity exists to prevent, demonstrated on purpose.
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", SelfInputLines()).ok());

  auto clean_config = BaseConfig(Stage1Algorithm::kBTO, Stage2Algorithm::kPK,
                                 Stage3Algorithm::kBRJ, 0);
  auto clean = RunSelfJoin(&dfs, "records", "clean", clean_config);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  auto config = BaseConfig(Stage1Algorithm::kBTO, Stage2Algorithm::kPK,
                           Stage3Algorithm::kBRJ, 0);
  // Flip a byte of one emitted RID-pair line in the kernel's reduce
  // output: the pairs file provably changes.
  auto plan = std::make_shared<mr::FaultPlan>();
  plan->faults.push_back(
      mr::FaultSpec{.phase = mr::TaskPhase::kReduce,
                    .task_id = 0,
                    .first_attempt = 0,
                    .failing_attempts = 2,
                    .corrupt_target = mr::CorruptTarget::kReduceOutput,
                    .corrupt_salt = 41,
                    .job_substring = "stage2"});
  config.fault_plan = plan;

  auto corrupted = RunSelfJoin(&dfs, "records", "silent", config);
  ASSERT_TRUE(corrupted.ok()) << corrupted.status().ToString();
  EXPECT_EQ(Total(*corrupted, &mr::JobMetrics::corruption_detected), 0u);
  EXPECT_NE(Lines(dfs, clean->rid_pairs_file),
            Lines(dfs, corrupted->rid_pairs_file));
}

TEST(FaultPipelineTest, PermanentCorruptionFailsPipelineWithStatus) {
  // Corruption on every attempt of one kernel task with verification on:
  // the integrity layer turns each attempt into a failure until the budget
  // is exhausted — a structured error, never silent wrong output.
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", SelfInputLines()).ok());

  auto plan = std::make_shared<mr::FaultPlan>();
  plan->faults.push_back(
      mr::FaultSpec{.phase = mr::TaskPhase::kMap,
                    .task_id = 1,
                    .first_attempt = 0,
                    .failing_attempts = mr::FaultSpec::kAllAttempts,
                    .corrupt_target = mr::CorruptTarget::kMapOutput,
                    .corrupt_salt = 41,
                    .job_substring = "stage2"});
  auto config = BaseConfig(Stage1Algorithm::kBTO, Stage2Algorithm::kPK,
                           Stage3Algorithm::kBRJ, 0);
  config.verify_integrity = true;
  config.fault_plan = plan;
  EXPECT_FALSE(plan->RecoverableWith(config.max_task_attempts, true));

  auto result = RunSelfJoin(&dfs, "records", "doomed", config);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("failed permanently"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_FALSE(dfs.Exists("doomed.joined"));
}

TEST(FaultPipelineTest, MalformedInputLinesQuarantinedAcrossThePipeline) {
  // Inject garbage lines into the input: every stage that parses records
  // quarantines them to its own "<output>.bad" file and the join over the
  // good records still succeeds.
  std::vector<std::string> lines = SelfInputLines();
  lines.insert(lines.begin() + 3, "not a record at all");
  lines.push_back("also\tnot\tenough");
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", std::move(lines)).ok());

  auto config = BaseConfig(Stage1Algorithm::kBTO, Stage2Algorithm::kPK,
                           Stage3Algorithm::kBRJ, 0);
  auto result = RunSelfJoin(&dfs, "records", "out", config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_GT(Total(*result, &mr::JobMetrics::records_skipped), 0u);
  bool bad_file_found = false;
  for (const std::string& name : dfs.ListFiles()) {
    if (name.size() > 4 && name.substr(name.size() - 4) == ".bad") {
      bad_file_found = true;
      for (const std::string& line : Lines(dfs, name)) {
        EXPECT_TRUE(line == "not a record at all" ||
                    line == "also\tnot\tenough")
            << name << ": " << line;
      }
    }
  }
  EXPECT_TRUE(bad_file_found);

  // The cap turns the same input into a structured failure.
  auto strict = BaseConfig(Stage1Algorithm::kBTO, Stage2Algorithm::kPK,
                           Stage3Algorithm::kBRJ, 0);
  strict.max_skipped_records = 1;
  auto refused = RunSelfJoin(&dfs, "records", "strict", strict);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss);
}

TEST(FaultPipelineTest, PermanentStageFaultFailsPipelineCleanly) {
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", SelfInputLines()).ok());

  auto plan = std::make_shared<mr::FaultPlan>();
  // Only the kernel job's reduce task 0 is cursed — stage 1 completes,
  // stage 2 exhausts its attempts, stage 3 never runs.
  plan->faults.push_back(
      mr::FaultSpec{.phase = mr::TaskPhase::kReduce,
                    .task_id = 0,
                    .failing_attempts = mr::FaultSpec::kAllAttempts,
                    .crash_after_records = 0,
                    .job_substring = "stage2"});
  auto config = BaseConfig(Stage1Algorithm::kBTO, Stage2Algorithm::kPK,
                           Stage3Algorithm::kBRJ, 0);
  config.fault_plan = plan;
  EXPECT_FALSE(plan->RecoverableWith(config.max_task_attempts));

  auto result = RunSelfJoin(&dfs, "records", "doomed", config);
  ASSERT_FALSE(result.ok());
  const std::string message = result.status().ToString();
  EXPECT_NE(message.find("stage2"), std::string::npos) << message;
  EXPECT_NE(message.find("failed permanently"), std::string::npos) << message;
  // The failed stage wrote nothing: no RID pairs, no join output.
  EXPECT_FALSE(dfs.ReadFile("doomed").ok());
}

}  // namespace
}  // namespace fj::join
