// The one-stage full-record alternative (Section 2.2) must produce exactly
// the same joined pairs as the three-stage pipeline — the paper dropped it
// for performance, not correctness — while shuffling far more bytes.
#include "fuzzyjoin/one_stage.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "data/generator.h"
#include "fuzzyjoin/fuzzyjoin.h"

namespace fj::join {
namespace {

using PairSet = std::set<std::pair<uint64_t, uint64_t>>;

PairSet CollectPairs(const mr::Dfs& dfs, const std::string& file) {
  PairSet pairs;
  auto joined = ReadJoinedPairs(dfs, file);
  EXPECT_TRUE(joined.ok()) << joined.status().ToString();
  if (!joined.ok()) return pairs;
  for (const auto& jp : *joined) {
    EXPECT_TRUE(pairs.emplace(jp.first.rid, jp.second.rid).second)
        << "duplicate pair survived dedup";
  }
  return pairs;
}

TEST(OneStageTest, MatchesThreeStagePipeline) {
  auto records = data::GenerateRecords(data::DblpLikeConfig(300, 61));
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", data::RecordsToLines(records)).ok());

  JoinConfig config;
  auto three_stage = RunSelfJoin(&dfs, "records", "threestage", config);
  ASSERT_TRUE(three_stage.ok()) << three_stage.status().ToString();
  auto one_stage = RunOneStageSelfJoin(&dfs, "records", "onestage", config);
  ASSERT_TRUE(one_stage.ok()) << one_stage.status().ToString();

  auto expected = CollectPairs(dfs, three_stage->output_file);
  auto got = CollectPairs(dfs, one_stage->output_file);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(got, expected);
}

TEST(OneStageTest, ShufflesFarMoreBytesThanProjectionKernel) {
  // The paper's reason for rejecting the alternative: whole records
  // (payload included) are replicated through the shuffle.
  auto records = data::GenerateRecords(data::DblpLikeConfig(300, 62));
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", data::RecordsToLines(records)).ok());

  JoinConfig config;
  auto three_stage = RunSelfJoin(&dfs, "records", "threestage", config);
  ASSERT_TRUE(three_stage.ok());
  auto one_stage = RunOneStageSelfJoin(&dfs, "records", "onestage", config);
  ASSERT_TRUE(one_stage.ok());

  uint64_t projection_kernel_bytes =
      three_stage->stages[1].jobs[0].shuffle_bytes;
  uint64_t full_record_kernel_bytes =
      one_stage->stages[1].jobs[0].shuffle_bytes;
  EXPECT_GT(full_record_kernel_bytes, 3 * projection_kernel_bytes);
}

TEST(OneStageTest, GroupedRoutingAlsoAgrees) {
  auto records = data::GenerateRecords(data::DblpLikeConfig(250, 63));
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", data::RecordsToLines(records)).ok());

  JoinConfig config;
  config.routing = TokenRouting::kGroupedTokens;
  config.num_groups = 11;
  auto three_stage = RunSelfJoin(&dfs, "records", "threestage", config);
  ASSERT_TRUE(three_stage.ok());
  auto one_stage = RunOneStageSelfJoin(&dfs, "records", "onestage", config);
  ASSERT_TRUE(one_stage.ok());
  EXPECT_EQ(CollectPairs(dfs, one_stage->output_file),
            CollectPairs(dfs, three_stage->output_file));
}

std::vector<uint64_t> ReduceInputRecords(const mr::JobMetrics& job) {
  std::vector<uint64_t> records;
  for (const mr::TaskMetrics& task : job.reduce_tasks) {
    records.push_back(task.input_records);
  }
  return records;
}

TEST(OneStageTest, RoutesLikeStage2UnderEveryGroupAssignment) {
  // The one-stage mapper projects and routes through the stage-2 mapper
  // base, so each reduce task of its kernel job receives exactly the
  // records the same stage-2 reduce task receives — under round-robin and
  // under contiguous group assignment alike — and the join output does
  // not depend on the assignment.
  auto records = data::GenerateRecords(data::DblpLikeConfig(2000, 64));
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", data::RecordsToLines(records)).ok());

  std::vector<std::vector<uint64_t>> stage2_inputs;
  std::vector<std::string> first_output;
  for (GroupAssignment assignment :
       {GroupAssignment::kRoundRobin, GroupAssignment::kContiguous}) {
    const bool round_robin = assignment == GroupAssignment::kRoundRobin;
    SCOPED_TRACE(round_robin ? "round-robin" : "contiguous");
    JoinConfig config;
    config.routing = TokenRouting::kGroupedTokens;
    config.num_groups = 16;
    config.group_assignment = assignment;
    const std::string tag = round_robin ? "rr" : "contiguous";
    auto three_stage = RunSelfJoin(&dfs, "records", "three-" + tag, config);
    ASSERT_TRUE(three_stage.ok()) << three_stage.status().ToString();
    auto one_stage =
        RunOneStageSelfJoin(&dfs, "records", "one-" + tag, config);
    ASSERT_TRUE(one_stage.ok()) << one_stage.status().ToString();

    const std::vector<uint64_t> stage2 =
        ReduceInputRecords(three_stage->stages[1].jobs.at(0));
    EXPECT_EQ(ReduceInputRecords(one_stage->stages[1].jobs.at(0)), stage2);
    stage2_inputs.push_back(stage2);

    const auto pairs = CollectPairs(dfs, one_stage->output_file);
    ASSERT_FALSE(pairs.empty());
    EXPECT_EQ(pairs, CollectPairs(dfs, three_stage->output_file));
    const std::vector<std::string> output =
        *dfs.ReadFile(one_stage->output_file).value();
    if (first_output.empty()) {
      first_output = output;
    } else {
      EXPECT_EQ(output, first_output);
    }
  }
  // The two assignments really route differently.
  EXPECT_NE(stage2_inputs[0], stage2_inputs[1]);
}

}  // namespace
}  // namespace fj::join
