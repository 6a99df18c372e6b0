// Pipeline-level golden test for the sort-spill-merge shuffle: the full
// three-stage self-join must produce byte-identical output whether every
// job runs with an unbounded sort buffer (legacy) or under any of a sweep
// of budgets small enough to force spilling — and the cluster model must
// charge the spill traffic it caused.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "data/generator.h"
#include "fuzzyjoin/fuzzyjoin.h"

namespace fj::join {
namespace {

std::vector<std::string> InputLines() {
  auto config = data::DblpLikeConfig(250, 11);
  config.payload_bytes = 24;
  return data::RecordsToLines(data::GenerateRecords(config));
}

JoinConfig BaseConfig(Stage1Algorithm s1, Stage2Algorithm s2,
                      Stage3Algorithm s3) {
  JoinConfig config;
  config.stage1 = s1;
  config.stage2 = s2;
  config.stage3 = s3;
  config.num_map_tasks = 4;
  config.num_reduce_tasks = 3;
  return config;
}

const std::vector<std::string>& Lines(const mr::Dfs& dfs,
                                      const std::string& file) {
  auto lines = dfs.ReadFile(file);
  EXPECT_TRUE(lines.ok());
  return *lines.value();
}

struct PipelineTotals {
  uint64_t spill_count = 0;
  uint64_t spilled_bytes = 0;
  double spill_seconds = 0;
};

PipelineTotals Totals(const JoinRunResult& result,
                      const mr::ClusterConfig& cluster) {
  PipelineTotals t;
  for (const auto& stage : result.stages) {
    for (const auto& job : stage.jobs) {
      t.spill_count += job.spill_count;
      t.spilled_bytes += job.spilled_bytes;
      t.spill_seconds += mr::SimulateJob(job, cluster).spill_seconds;
    }
  }
  return t;
}

void RunGoldenCase(Stage1Algorithm s1, Stage2Algorithm s2,
                   Stage3Algorithm s3) {
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", InputLines()).ok());
  mr::ClusterConfig cluster;

  auto legacy_config = BaseConfig(s1, s2, s3);
  auto legacy = RunSelfJoin(&dfs, "records", "legacy", legacy_config);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  auto legacy_totals = Totals(*legacy, cluster);
  EXPECT_EQ(legacy_totals.spill_count, 0u);
  EXPECT_DOUBLE_EQ(legacy_totals.spill_seconds, 0.0);

  // Every budget is far below some stage's volume, from a few spills per
  // task down to a few pairs per run; a smaller budget spills more.
  uint64_t larger_budget_spills = 0;
  for (uint64_t budget : {2048, 512, 256, 128}) {
    SCOPED_TRACE("sort_buffer_bytes=" + std::to_string(budget));
    auto spill_config = BaseConfig(s1, s2, s3);
    spill_config.sort_buffer_bytes = budget;
    auto spilled = RunSelfJoin(&dfs, "records",
                               "spilled" + std::to_string(budget),
                               spill_config);
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    auto spilled_totals = Totals(*spilled, cluster);
    EXPECT_GT(spilled_totals.spill_count, larger_budget_spills);
    EXPECT_GT(spilled_totals.spilled_bytes, 0u);
    EXPECT_GT(spilled_totals.spill_seconds, 0.0);
    larger_budget_spills = spilled_totals.spill_count;

    // The join itself and every kept intermediate are byte-identical.
    EXPECT_EQ(Lines(dfs, legacy->output_file),
              Lines(dfs, spilled->output_file));
    EXPECT_EQ(Lines(dfs, legacy->ordering_file),
              Lines(dfs, spilled->ordering_file));
    EXPECT_EQ(Lines(dfs, legacy->rid_pairs_file),
              Lines(dfs, spilled->rid_pairs_file));
  }
}

TEST(SpillPipelineTest, BtoPkBrjGolden) {
  RunGoldenCase(Stage1Algorithm::kBTO, Stage2Algorithm::kPK,
                Stage3Algorithm::kBRJ);
}

TEST(SpillPipelineTest, OptoBkOprjGolden) {
  RunGoldenCase(Stage1Algorithm::kOPTO, Stage2Algorithm::kBK,
                Stage3Algorithm::kOPRJ);
}

TEST(SpillPipelineTest, BtoPkOprjGolden) {
  RunGoldenCase(Stage1Algorithm::kBTO, Stage2Algorithm::kPK,
                Stage3Algorithm::kOPRJ);
}

}  // namespace
}  // namespace fj::join
