// End-to-end driver behaviour: stage naming, intermediate artifacts,
// simulated-time plumbing, and configuration validation propagation.
#include "fuzzyjoin/driver.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "data/generator.h"
#include "fuzzyjoin/fuzzyjoin.h"

namespace fj::join {
namespace {

class DriverTest : public testing::Test {
 protected:
  void SetUp() override {
    auto config = data::DblpLikeConfig(200, 3);
    config.payload_bytes = 16;
    records_ = data::GenerateRecords(config);
    ASSERT_TRUE(
        dfs_.WriteFile("records", data::RecordsToLines(records_)).ok());
  }

  mr::Dfs dfs_;
  std::vector<data::Record> records_;
};

TEST_F(DriverTest, StageNamesReflectConfiguredAlgorithms) {
  JoinConfig config;
  config.stage1 = Stage1Algorithm::kOPTO;
  config.stage2 = Stage2Algorithm::kBK;
  config.stage3 = Stage3Algorithm::kBRJ;
  auto result = RunSelfJoin(&dfs_, "records", "out", config);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->stages.size(), 3u);
  EXPECT_EQ(result->stages[0].stage_name, "1-OPTO");
  EXPECT_EQ(result->stages[1].stage_name, "2-BK");
  EXPECT_EQ(result->stages[2].stage_name, "3-BRJ");
  EXPECT_EQ(result->stages[0].jobs.size(), 1u);   // OPTO: one phase
  EXPECT_EQ(result->stages[2].jobs.size(), 2u);   // BRJ: two phases
}

TEST_F(DriverTest, BtoHasTwoJobsOprjOne) {
  JoinConfig config;  // BTO / PK / OPRJ defaults
  config.stage3 = Stage3Algorithm::kOPRJ;
  auto result = RunSelfJoin(&dfs_, "records", "out", config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stages[0].jobs.size(), 2u);
  EXPECT_EQ(result->stages[2].jobs.size(), 1u);
}

TEST_F(DriverTest, IntermediateArtifactsAreInspectable) {
  JoinConfig config;
  auto result = RunSelfJoin(&dfs_, "records", "out", config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(dfs_.Exists(result->ordering_file));
  EXPECT_TRUE(dfs_.Exists(result->rid_pairs_file));
  EXPECT_TRUE(dfs_.Exists(result->output_file));
  // The ordering file parses.
  auto ordering =
      text::TokenOrdering::FromLines(*dfs_.ReadFile(result->ordering_file).value());
  EXPECT_TRUE(ordering.ok());
  // Every rid-pair line parses.
  for (const auto& line : *dfs_.ReadFile(result->rid_pairs_file).value()) {
    EXPECT_TRUE(ParseRidPairLine(line).ok()) << line;
  }
}

TEST_F(DriverTest, SimulatedSecondsDecreaseWithClusterSize) {
  JoinConfig config;
  auto result = RunSelfJoin(&dfs_, "records", "out", config);
  ASSERT_TRUE(result.ok());
  mr::ClusterConfig small, large;
  small.nodes = 2;
  large.nodes = 10;
  small.work_scale = large.work_scale = 10000;
  EXPECT_GT(result->SimulatedSeconds(small), result->SimulatedSeconds(large));
  // Per-stage times sum to the total.
  double sum = 0;
  for (size_t i = 0; i < 3; ++i) sum += result->SimulatedStageSeconds(i, large);
  EXPECT_DOUBLE_EQ(sum, result->SimulatedSeconds(large));
  EXPECT_DOUBLE_EQ(result->SimulatedStageSeconds(99, large), 0.0);
  EXPECT_GT(result->TotalWallSeconds(), 0.0);
}

TEST_F(DriverTest, InvalidConfigRejectedBeforeRunning) {
  JoinConfig config;
  config.tau = 1.5;
  auto result = RunSelfJoin(&dfs_, "records", "out", config);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(dfs_.Exists("out.ordering"));
}

TEST_F(DriverTest, MissingInputPropagatesNotFound) {
  JoinConfig config;
  auto result = RunSelfJoin(&dfs_, "absent", "out", config);
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(DriverTest, OutputPrefixCollisionSurfacesAsError) {
  JoinConfig config;
  ASSERT_TRUE(RunSelfJoin(&dfs_, "records", "out", config).ok());
  // Same prefix again: the ordering file already exists.
  auto again = RunSelfJoin(&dfs_, "records", "out", config);
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(DriverTest, RSJoinStageOneRunsOnROnly) {
  // Tokens unique to S must not appear in the stage-1 ordering.
  std::vector<data::Record> r{{1, "alpha beta", "mcx", "p"}};
  std::vector<data::Record> s{{1, "alpha zeta", "mcy", "p"}};
  ASSERT_TRUE(dfs_.WriteFile("r", data::RecordsToLines(r)).ok());
  ASSERT_TRUE(dfs_.WriteFile("s", data::RecordsToLines(s)).ok());
  JoinConfig config;
  auto result = RunRSJoin(&dfs_, "r", "s", "rsout", config);
  ASSERT_TRUE(result.ok());
  auto lines = dfs_.ReadFile(result->ordering_file).value();
  for (const auto& line : *lines) {
    EXPECT_EQ(line.find("zeta"), std::string::npos) << line;
    EXPECT_EQ(line.find("mcy"), std::string::npos) << line;
  }
}

// Count limits. SIZE_MAX is what a "-1" flag used to become; each count
// must fail validation on its own, before anything allocates per task or
// starts a worker — so this test builds no executor.
TEST(ConfigLimitsTest, ValidateRefusesUnboundedCounts) {
  const std::vector<std::pair<std::string, void (*)(JoinConfig*)>> cases = {
      {"local_threads", [](JoinConfig* c) { c->local_threads = SIZE_MAX; }},
      {"num_map_tasks", [](JoinConfig* c) { c->num_map_tasks = SIZE_MAX; }},
      {"num_reduce_tasks",
       [](JoinConfig* c) { c->num_reduce_tasks = SIZE_MAX; }},
  };
  for (const auto& [field, set] : cases) {
    JoinConfig config;
    set(&config);
    const Status status = config.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << field;
    EXPECT_NE(status.message().find(field), std::string::npos)
        << status.ToString();
  }

  // Every count at its limit is accepted.
  JoinConfig at_limit;
  at_limit.local_threads = Executor::kMaxWorkers;
  at_limit.num_map_tasks = JoinConfig::kMaxTasks;
  at_limit.num_reduce_tasks = JoinConfig::kMaxTasks;
  EXPECT_TRUE(at_limit.Validate().ok()) << at_limit.Validate().ToString();

  // The thread limit is an engine check, shared with every JobSpec.
  mr::EngineOptions engine;
  engine.local_threads = Executor::kMaxWorkers + 1;
  EXPECT_EQ(engine.Validate().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fj::join
