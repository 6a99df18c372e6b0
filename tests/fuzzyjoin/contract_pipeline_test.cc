// Contract checks over the real pipelines: every paper variant (stage 1
// BTO/OPTO x stage 2 BK/PK x stage 3 BRJ/OPRJ, self-join and R-S join)
// must pass the contract checker — the drivers' comparators, partitioners
// and combiners are lawful — and produce byte-identical output with
// checking on and off. This is the "checks never change answers, only
// detect broken jobs" guarantee.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "data/generator.h"
#include "data/increase.h"
#include "fuzzyjoin/fuzzyjoin.h"

namespace fj::join {
namespace {

struct Variant {
  Stage1Algorithm stage1;
  Stage2Algorithm stage2;
  Stage3Algorithm stage3;
  const char* name;
};

const Variant kVariants[] = {
    {Stage1Algorithm::kBTO, Stage2Algorithm::kBK, Stage3Algorithm::kBRJ,
     "bto-bk-brj"},
    {Stage1Algorithm::kBTO, Stage2Algorithm::kPK, Stage3Algorithm::kOPRJ,
     "bto-pk-oprj"},
    {Stage1Algorithm::kOPTO, Stage2Algorithm::kBK, Stage3Algorithm::kOPRJ,
     "opto-bk-oprj"},
    {Stage1Algorithm::kOPTO, Stage2Algorithm::kPK, Stage3Algorithm::kBRJ,
     "opto-pk-brj"},
};

JoinConfig VariantConfig(const Variant& v, bool check) {
  JoinConfig config;
  config.stage1 = v.stage1;
  config.stage2 = v.stage2;
  config.stage3 = v.stage3;
  config.check_contracts = check;
  config.contract_sample_every = 1;  // exhaustive: every key sampled
  return config;
}

uint64_t TotalContractChecks(const JoinRunResult& result) {
  uint64_t total = 0;
  for (const auto& stage : result.stages) {
    for (const auto& job : stage.jobs) total += job.contract_checks;
  }
  return total;
}

const std::vector<std::string>* ReadLines(const mr::Dfs& dfs,
                                          const std::string& file) {
  auto lines = dfs.ReadFile(file);
  EXPECT_TRUE(lines.ok()) << file;
  return lines.ok() ? lines.value() : nullptr;
}

TEST(ContractPipelineTest, SelfJoinVariantsPassChecksByteIdentically) {
  mr::Dfs dfs;
  auto gen = data::DblpLikeConfig(250, 77);
  gen.payload_bytes = 12;
  ASSERT_TRUE(
      dfs.WriteFile("records",
                    data::RecordsToLines(data::GenerateRecords(gen)))
          .ok());

  for (const auto& v : kVariants) {
    auto off = RunSelfJoin(&dfs, "records", std::string("off-") + v.name,
                           VariantConfig(v, false));
    ASSERT_TRUE(off.ok()) << v.name << ": " << off.status().ToString();
    auto on = RunSelfJoin(&dfs, "records", std::string("on-") + v.name,
                          VariantConfig(v, true));
    ASSERT_TRUE(on.ok()) << v.name << ": " << on.status().ToString();

    const auto* lines_off = ReadLines(dfs, off->output_file);
    const auto* lines_on = ReadLines(dfs, on->output_file);
    ASSERT_NE(lines_off, nullptr);
    ASSERT_NE(lines_on, nullptr);
    EXPECT_EQ(*lines_off, *lines_on) << v.name;
    EXPECT_FALSE(lines_on->empty()) << v.name;

    // The drivers really were checked — and an unchecked run is not.
    EXPECT_GT(TotalContractChecks(*on), 0u) << v.name;
    EXPECT_EQ(TotalContractChecks(*off), 0u) << v.name;
  }
}

TEST(ContractPipelineTest, RSJoinVariantsPassChecksByteIdentically) {
  mr::Dfs dfs;
  auto r_gen = data::DblpLikeConfig(150, 31);
  r_gen.payload_bytes = 12;
  auto s_gen = data::DblpLikeConfig(200, 32);
  s_gen.payload_bytes = 12;
  ASSERT_TRUE(
      dfs.WriteFile("r", data::RecordsToLines(data::GenerateRecords(r_gen)))
          .ok());
  ASSERT_TRUE(
      dfs.WriteFile("s", data::RecordsToLines(data::GenerateRecords(s_gen)))
          .ok());

  for (const auto& v : kVariants) {
    auto off = RunRSJoin(&dfs, "r", "s", std::string("off-") + v.name,
                         VariantConfig(v, false));
    ASSERT_TRUE(off.ok()) << v.name << ": " << off.status().ToString();
    auto on = RunRSJoin(&dfs, "r", "s", std::string("on-") + v.name,
                        VariantConfig(v, true));
    ASSERT_TRUE(on.ok()) << v.name << ": " << on.status().ToString();

    const auto* lines_off = ReadLines(dfs, off->output_file);
    const auto* lines_on = ReadLines(dfs, on->output_file);
    ASSERT_NE(lines_off, nullptr);
    ASSERT_NE(lines_on, nullptr);
    EXPECT_EQ(*lines_off, *lines_on) << v.name;

    EXPECT_GT(TotalContractChecks(*on), 0u) << v.name;
    EXPECT_EQ(TotalContractChecks(*off), 0u) << v.name;
  }
}

// The sampling interval's gates, on BTO-PK-BRJ over 1,000 DBLP-like
// records (base 500 x 2, seed 42) with the 10-node cluster's 80 map and
// 40 reduce tasks: every interval leaves the output byte-identical to the
// checks-off run, the check count falls strictly as the interval grows,
// and the default interval does at most a tenth of every-key checking's
// work.
TEST(ContractPipelineTest, SamplingIntervalBoundsCheckWork) {
  mr::Dfs dfs;
  auto records = data::IncreaseDataset(
      data::GenerateRecords(data::DblpLikeConfig(500, 42)), 2);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 1000u);
  ASSERT_TRUE(dfs.WriteFile("dblp", data::RecordsToLines(*records)).ok());

  auto make_config = [](bool check, uint32_t every) {
    JoinConfig config;
    config.stage1 = Stage1Algorithm::kBTO;
    config.stage2 = Stage2Algorithm::kPK;
    config.stage3 = Stage3Algorithm::kBRJ;
    config.num_map_tasks = 80;
    config.num_reduce_tasks = 40;
    config.check_contracts = check;
    config.contract_sample_every = every;
    return config;
  };
  auto off = RunSelfJoin(&dfs, "dblp", "off", make_config(false, 1));
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  const auto* lines_off = ReadLines(dfs, off->output_file);
  ASSERT_NE(lines_off, nullptr);
  EXPECT_FALSE(lines_off->empty());

  std::map<uint32_t, uint64_t> checks;
  for (uint32_t every : {64u, 16u, 4u, 1u}) {
    auto on = RunSelfJoin(&dfs, "dblp", "every-" + std::to_string(every),
                          make_config(true, every));
    ASSERT_TRUE(on.ok()) << every << ": " << on.status().ToString();
    const auto* lines_on = ReadLines(dfs, on->output_file);
    ASSERT_NE(lines_on, nullptr);
    EXPECT_EQ(*lines_on, *lines_off) << "every " << every;
    checks[every] = TotalContractChecks(*on);
  }
  EXPECT_GT(checks[64], 0u);
  EXPECT_GT(checks[16], checks[64]);
  EXPECT_GT(checks[4], checks[16]);
  EXPECT_GT(checks[1], checks[4]);
  const uint32_t default_every = JoinConfig{}.contract_sample_every;
  ASSERT_EQ(default_every, 16u);
  EXPECT_LE(10 * checks[default_every], checks[1]);
}

}  // namespace
}  // namespace fj::join
