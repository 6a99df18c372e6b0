// Length-based secondary routing for the BK kernel (Section 5, first
// paragraph): must be result-identical to plain BK while partitioning the
// reducer groups further (smaller peak memory per group).
#include <gtest/gtest.h>

#include <set>

#include "data/generator.h"
#include "fuzzyjoin/fuzzyjoin.h"

namespace fj::join {
namespace {

using PairSet = std::set<std::pair<uint64_t, uint64_t>>;

struct Outcome {
  PairSet pairs;
  int64_t peak_group = 0;
  uint64_t shuffle_records = 0;
};

Outcome RunPipeline(const std::vector<data::Record>& records, JoinConfig config) {
  mr::Dfs dfs;
  EXPECT_TRUE(dfs.WriteFile("records", data::RecordsToLines(records)).ok());
  Outcome outcome;
  auto result = RunSelfJoin(&dfs, "records", "out", config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return outcome;
  auto joined = ReadJoinedPairs(dfs, result->output_file);
  EXPECT_TRUE(joined.ok());
  for (const auto& jp : *joined) {
    outcome.pairs.emplace(jp.first.rid, jp.second.rid);
  }
  const auto& kernel_job = result->stages[1].jobs[0];
  outcome.peak_group = kernel_job.counters.Get("stage2.peak_group_records");
  outcome.shuffle_records = kernel_job.shuffle_records;
  return outcome;
}

class LengthRoutingTest : public testing::TestWithParam<uint32_t> {};

TEST_P(LengthRoutingTest, ResultsIdenticalToPlainBK) {
  auto config = data::DblpLikeConfig(350, 71);
  config.payload_bytes = 16;
  // Widen the record-length spread so length classes matter.
  config.title_tokens_min = 3;
  config.title_tokens_max = 24;
  auto records = data::GenerateRecords(config);

  JoinConfig plain;
  plain.stage2 = Stage2Algorithm::kBK;
  auto baseline = RunPipeline(records, plain);
  ASSERT_FALSE(baseline.pairs.empty());

  JoinConfig routed = plain;
  routed.bk_length_routing = true;
  routed.length_class_width = GetParam();
  auto outcome = RunPipeline(records, routed);
  EXPECT_EQ(outcome.pairs, baseline.pairs)
      << "class width " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Widths, LengthRoutingTest,
                         testing::Values(1u, 2u, 4u, 16u, 100u),
                         [](const testing::TestParamInfo<uint32_t>& info) {
                           return "width" + std::to_string(info.param);
                         });

TEST(LengthRoutingTest, PartitionsGroupsFurther) {
  auto config = data::DblpLikeConfig(500, 72);
  config.payload_bytes = 16;
  config.title_tokens_min = 3;
  config.title_tokens_max = 30;
  auto records = data::GenerateRecords(config);

  JoinConfig plain;
  plain.stage2 = Stage2Algorithm::kBK;
  plain.routing = TokenRouting::kGroupedTokens;
  plain.num_groups = 2;  // big groups, so the extra partitioning shows
  auto baseline = RunPipeline(records, plain);

  JoinConfig routed = plain;
  routed.bk_length_routing = true;
  routed.length_class_width = 2;
  auto outcome = RunPipeline(records, routed);

  EXPECT_EQ(outcome.pairs, baseline.pairs);
  // The paper's claim: the additional routing criterion decreases the
  // amount of data a reducer must hold...
  EXPECT_LT(outcome.peak_group, baseline.peak_group);
  // ...at the price of replicating records across classes.
  EXPECT_GT(outcome.shuffle_records, baseline.shuffle_records);
}

TEST(LengthRoutingTest, ValidationRules) {
  JoinConfig config;
  config.bk_length_routing = true;
  config.stage2 = Stage2Algorithm::kPK;
  EXPECT_FALSE(config.Validate().ok());
  config.stage2 = Stage2Algorithm::kBK;
  EXPECT_TRUE(config.Validate().ok());
  config.block_processing = BlockProcessing::kMapBased;
  EXPECT_FALSE(config.Validate().ok());
  config.block_processing = BlockProcessing::kNone;
  config.length_class_width = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(LengthRoutingTest, RejectedForRSJoins) {
  // Length classes are a self-join layout. An R-S join refuses the option
  // by name rather than run plain BK without it.
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("r", {"1\tt a b\tx\tp"}).ok());
  ASSERT_TRUE(dfs.WriteFile("s", {"2\tt a b\ty\tp"}).ok());
  JoinConfig config;
  config.bk_length_routing = true;
  config.stage2 = Stage2Algorithm::kBK;
  auto result = RunRSJoin(&dfs, "r", "s", "out", config);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("bk_length_routing"),
            std::string::npos)
      << result.status().message();
}

}  // namespace
}  // namespace fj::join
