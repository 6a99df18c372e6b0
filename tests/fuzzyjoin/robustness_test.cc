// Robustness: corrupt or degenerate inputs must never crash a stage — bad
// lines are counted and skipped, and the rest of the data still joins.
#include <gtest/gtest.h>

#include <string>

#include "common/string_util.h"
#include "data/generator.h"
#include "fuzzyjoin/fuzzyjoin.h"
#include "text/token_ordering.h"

namespace fj::join {
namespace {

TEST(RobustnessTest, CorruptLinesAreSkippedEverywhere) {
  auto records = data::GenerateRecords(data::DblpLikeConfig(100, 121));
  auto lines = data::RecordsToLines(records);
  // Interleave junk of several shapes.
  lines.insert(lines.begin(), "");
  lines.insert(lines.begin() + 20, "not a record at all");
  lines.insert(lines.begin() + 40, "xyz\tbad rid\tfields\tpayload");
  lines.insert(lines.begin() + 60, "\t\t\t");
  lines.push_back("12345");  // too few fields

  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", lines).ok());
  JoinConfig config;
  auto result = RunSelfJoin(&dfs, "records", "out", config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Stage 1 and stage 2 both counted the bad lines; stage 3 still joined.
  int64_t bad_stage1 = 0;
  for (const auto& job : result->stages[0].jobs) {
    bad_stage1 += job.counters.Get("stage1.bad_records");
  }
  EXPECT_GE(bad_stage1, 4);
  auto joined = ReadJoinedPairs(dfs, result->output_file);
  ASSERT_TRUE(joined.ok());
  EXPECT_FALSE(joined->empty());
}

TEST(RobustnessTest, ParseErrorsEchoABoundedExcerptOfAHugeLine) {
  // A 1 MB malformed record. Each parser's Status names a fixed-size
  // prefix and the length, instead of carrying one more full copy of the
  // line per failure (mappers that only count failures pay for it too).
  const std::string huge(1 << 20, 'x');
  auto expect_bounded = [](const Status& status, const char* parser) {
    EXPECT_FALSE(status.ok()) << parser;
    EXPECT_LT(status.message().size(), 2 * kErrorExcerptBytes + 64)
        << parser;
    EXPECT_NE(status.message().find("(1048576 bytes)"), std::string::npos)
        << parser << ": " << status.message().substr(0, 200);
  };
  expect_bounded(data::Record::FromLine(huge).status(), "record fields");
  expect_bounded(data::Record::FromLine(huge + "\tt\ta\tp").status(),
                 "record rid");
  expect_bounded(ParseRidPairLine(huge).status(), "rid-pair fields");
  expect_bounded(ParseRidPairLine(huge + "\t1\t0.5").status(), "rid-pair rid");
  expect_bounded(ParseRidPairLine("1\t2\t" + huge).status(),
                 "rid-pair similarity");
  expect_bounded(text::TokenOrdering::FromLines({huge}).status(),
                 "ordering fields");
  expect_bounded(
      text::TokenOrdering::FromLines({huge + "\t1", huge + "\t2"}).status(),
      "ordering duplicate");
  expect_bounded(JoinedPair::FromLine(huge).status(), "joined-pair fields");

  // Short offending text is echoed whole.
  EXPECT_EQ(ErrorExcerpt("a\tb"), "\"a\tb\" (3 bytes)");
  EXPECT_EQ(ErrorExcerpt(huge), "\"" + huge.substr(0, kErrorExcerptBytes) +
                                    "...\" (1048576 bytes)");
}

TEST(RobustnessTest, RecordsWithEmptyJoinAttribute) {
  std::vector<data::Record> records{
      {1, "", "", "payload only"},
      {2, "   -- ", "...", "punctuation only"},
      {3, "real tokens here", "mcfoo", "p"},
      {4, "real tokens here", "mcfoo", "p"},
  };
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", data::RecordsToLines(records)).ok());
  JoinConfig config;
  auto result = RunSelfJoin(&dfs, "records", "out", config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto joined = ReadJoinedPairs(dfs, result->output_file);
  ASSERT_TRUE(joined.ok());
  // Only the (3, 4) pair; empty-attribute records join nothing.
  ASSERT_EQ(joined->size(), 1u);
  EXPECT_EQ((*joined)[0].first.rid, 3u);
  EXPECT_EQ((*joined)[0].second.rid, 4u);
  int64_t empty_records = 0;
  for (const auto& job : result->stages[1].jobs) {
    empty_records += job.counters.Get("stage2.empty_records");
  }
  EXPECT_EQ(empty_records, 2);
}

TEST(RobustnessTest, SingleTokenRecords) {
  // Prefix length of a 1-token set is 1; pairs of identical singletons
  // must join at similarity 1.
  std::vector<data::Record> records{
      {1, "solo", "", "p"}, {2, "solo", "", "p"}, {3, "other", "", "p"}};
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", data::RecordsToLines(records)).ok());
  for (auto stage2 : {Stage2Algorithm::kBK, Stage2Algorithm::kPK}) {
    JoinConfig config;
    config.stage2 = stage2;
    auto result = RunSelfJoin(&dfs, "records",
                              std::string("out") + Stage2Name(stage2),
                              config);
    ASSERT_TRUE(result.ok());
    auto joined = ReadJoinedPairs(dfs, result->output_file);
    ASSERT_TRUE(joined.ok());
    ASSERT_EQ(joined->size(), 1u) << Stage2Name(stage2);
    EXPECT_DOUBLE_EQ((*joined)[0].similarity, 1.0);
  }
}

TEST(RobustnessTest, AllRecordsIdentical) {
  std::vector<data::Record> records;
  for (uint64_t i = 1; i <= 25; ++i) {
    records.push_back({i, "same title every time", "mcsame", "p"});
  }
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", data::RecordsToLines(records)).ok());
  JoinConfig config;
  auto result = RunSelfJoin(&dfs, "records", "out", config);
  ASSERT_TRUE(result.ok());
  auto joined = ReadJoinedPairs(dfs, result->output_file);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->size(), 25u * 24u / 2u);  // C(25, 2)
}

TEST(RobustnessTest, HugeRecordAmongTinyOnes) {
  std::string huge_title;
  for (int i = 0; i < 500; ++i) {
    huge_title += " tok";
    huge_title += std::to_string(i);
  }
  std::vector<data::Record> records{
      {1, "tiny title", "", "p"},
      {2, huge_title, "", "p"},
      {3, "tiny title", "", "p"},
  };
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", data::RecordsToLines(records)).ok());
  JoinConfig config;
  auto result = RunSelfJoin(&dfs, "records", "out", config);
  ASSERT_TRUE(result.ok());
  auto joined = ReadJoinedPairs(dfs, result->output_file);
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined->size(), 1u);
  EXPECT_EQ((*joined)[0].first.rid, 1u);
  EXPECT_EQ((*joined)[0].second.rid, 3u);
}

TEST(RobustnessTest, RidPairsReferencingCorruptRecordsDoNotCrashStage3) {
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", {"1\ta b\tx\tp", "garbage"}).ok());
  ASSERT_TRUE(dfs.WriteFile("pairs",
                            {FormatRidPairLine(1, 2, 0.9), "junk pair line"})
                  .ok());
  for (auto alg : {Stage3Algorithm::kBRJ, Stage3Algorithm::kOPRJ}) {
    JoinConfig config;
    config.stage3 = alg;
    auto result = RunStage3SelfJoin(&dfs, "records", "pairs",
                                    std::string("out") + Stage3Name(alg),
                                    config);
    ASSERT_TRUE(result.ok()) << Stage3Name(alg);
    auto joined = ReadJoinedPairs(dfs, result->output_file);
    ASSERT_TRUE(joined.ok());
    EXPECT_TRUE(joined->empty());  // rid 2 does not exist
  }
}

}  // namespace
}  // namespace fj::join
