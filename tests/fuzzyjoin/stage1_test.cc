// Stage-1 (token ordering) unit tests: BTO and OPTO must agree with each
// other and with an in-memory count, the ordering must be increasing in
// frequency, and the combiner must cut the counting job's shuffle.
#include "fuzzyjoin/stage1.h"

#include <gtest/gtest.h>

#include <map>

#include "common/hash.h"
#include "common/string_util.h"
#include "data/generator.h"
#include "data/record.h"
#include "text/token_ordering.h"
#include "text/tokenizer.h"

namespace fj::join {
namespace {

std::vector<std::string> TestLines() {
  std::vector<data::Record> records{
      {1, "A B C", "", "p"},
      {2, "B C D", "", "p"},
      {3, "C D", "", "p"},
      {4, "D", "", "p"},
  };
  return data::RecordsToLines(records);
}

TEST(Stage1Test, BtoComputesIncreasingFrequencyOrder) {
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", TestLines()).ok());
  JoinConfig config;
  config.stage1 = Stage1Algorithm::kBTO;
  auto result = RunStage1(&dfs, "in", "ordering", config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->jobs.size(), 2u);  // count + sort phases

  auto lines = dfs.ReadFile("ordering");
  ASSERT_TRUE(lines.ok());
  // a:1 b:2 c:3 d:3 -> a, b, then c before d (tie broken by token).
  EXPECT_EQ(*lines.value(),
            (std::vector<std::string>{"a\t1", "b\t2", "c\t3", "d\t3"}));
}

TEST(Stage1Test, OptoSingleJobSameOrdering) {
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", TestLines()).ok());
  JoinConfig config;
  config.stage1 = Stage1Algorithm::kOPTO;
  auto result = RunStage1(&dfs, "in", "ordering", config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->jobs.size(), 1u);
  EXPECT_EQ(result->jobs[0].reduce_tasks.size(), 1u);  // single reducer
  EXPECT_EQ(*dfs.ReadFile("ordering").value(),
            (std::vector<std::string>{"a\t1", "b\t2", "c\t3", "d\t3"}));
}

TEST(Stage1Test, BtoAndOptoAgreeOnRealisticData) {
  auto records = data::GenerateRecords(data::DblpLikeConfig(400, 13));
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", data::RecordsToLines(records)).ok());

  JoinConfig bto;
  bto.stage1 = Stage1Algorithm::kBTO;
  ASSERT_TRUE(RunStage1(&dfs, "in", "bto", bto).ok());
  JoinConfig opto;
  opto.stage1 = Stage1Algorithm::kOPTO;
  ASSERT_TRUE(RunStage1(&dfs, "in", "opto", opto).ok());

  EXPECT_EQ(*dfs.ReadFile("bto").value(), *dfs.ReadFile("opto").value());

  // And both agree with a direct in-memory count.
  text::WordTokenizer tokenizer;
  std::map<std::string, uint64_t> counts;
  for (const auto& r : records) {
    for (const auto& t : tokenizer.Tokenize(r.JoinAttribute())) counts[t]++;
  }
  auto expected =
      text::TokenOrdering::FromCounts({counts.begin(), counts.end()});
  EXPECT_EQ(*dfs.ReadFile("bto").value(), expected.ToLines());
}

TEST(Stage1Test, OrderingParsesAndIsMonotone) {
  auto records = data::GenerateRecords(data::DblpLikeConfig(200, 14));
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", data::RecordsToLines(records)).ok());
  JoinConfig config;
  ASSERT_TRUE(RunStage1(&dfs, "in", "ordering", config).ok());
  auto parsed = text::TokenOrdering::FromLines(*dfs.ReadFile("ordering").value());
  ASSERT_TRUE(parsed.ok());
  for (size_t rank = 1; rank < parsed->size(); ++rank) {
    EXPECT_LE(parsed->FrequencyOfRank(rank - 1), parsed->FrequencyOfRank(rank));
  }
}

TEST(Stage1Test, CombinerShrinksCountJobShuffle) {
  // The count job's map output is one pair per token *occurrence*; the
  // combiner collapses per-task duplicates, so shuffle records must be
  // well below map output records on skewed data.
  auto records = data::GenerateRecords(data::DblpLikeConfig(500, 15));
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", data::RecordsToLines(records)).ok());
  JoinConfig config;
  config.stage1 = Stage1Algorithm::kBTO;
  config.num_map_tasks = 4;
  auto result = RunStage1(&dfs, "in", "ordering", config);
  ASSERT_TRUE(result.ok());
  const auto& count_job = result->jobs[0];
  EXPECT_LT(count_job.shuffle_records, count_job.map_output_records / 2);
}

TEST(Stage1Test, BtoCountJobGoldenCountersUnderSmallSortBuffer) {
  // The BTO count job is the pipeline's combining job. With a 2 KiB sort
  // buffer every map task spills many times and every reducer merges in
  // several passes. These goldens were captured from the sort buffer that
  // stable-sorted every emitted pair before combining; grouping on insert
  // must not move one spill point, meter, or output line.
  auto records = data::GenerateRecords(data::DblpLikeConfig(300, 17));
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", data::RecordsToLines(records)).ok());
  JoinConfig config;
  config.stage1 = Stage1Algorithm::kBTO;
  config.num_map_tasks = 4;
  config.num_reduce_tasks = 3;
  config.sort_buffer_bytes = 2048;
  config.merge_factor = 4;
  auto result = RunStage1(&dfs, "in", "ordering", config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const mr::JobMetrics& count = result->jobs[0];

  const std::vector<std::string>& lines =
      *dfs.ReadFile("ordering.counts").value();
  uint64_t digest = kFnvOffsetBasis;
  for (const std::string& line : lines) {
    digest = HashCombine(digest, HashString(line));
  }
  EXPECT_EQ(lines.size(), 999u);
  EXPECT_EQ(digest, 1797663522957480284ULL);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines.front(), "bababa\t143");
  EXPECT_EQ(lines.back(), "zayuba\t2");

  EXPECT_EQ(count.map_output_records, 3071u);
  EXPECT_EQ(count.shuffle_records, 2447u);
  EXPECT_EQ(count.shuffle_bytes, 44046u);
  EXPECT_EQ(count.spill_count, 56u);
  EXPECT_EQ(count.merge_passes, 30u);
  std::vector<uint64_t> peak_buffer_bytes;
  for (const mr::TaskMetrics& task : count.map_tasks) {
    peak_buffer_bytes.push_back(task.peak_buffer_bytes);
  }
  EXPECT_EQ(peak_buffer_bytes,
            (std::vector<uint64_t>{2034, 2034, 2034, 2034}));
}

TEST(Stage1Test, CombinerIsPurelyAnOptimization) {
  // Disabling the combiner must not change the ordering, for either
  // algorithm — only the shuffle volume.
  auto records = data::GenerateRecords(data::DblpLikeConfig(300, 16));
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", data::RecordsToLines(records)).ok());
  for (auto alg : {Stage1Algorithm::kBTO, Stage1Algorithm::kOPTO}) {
    JoinConfig with, without;
    with.stage1 = without.stage1 = alg;
    without.use_stage1_combiner = false;
    std::string name = Stage1Name(alg);
    auto r1 = RunStage1(&dfs, "in", name + "-on", with);
    auto r2 = RunStage1(&dfs, "in", name + "-off", without);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(*dfs.ReadFile(name + "-on").value(),
              *dfs.ReadFile(name + "-off").value());
    EXPECT_LT(r1->jobs[0].shuffle_records, r2->jobs[0].shuffle_records);
  }
}

TEST(Stage1Test, MalformedRecordsAreCountedAndSkipped) {
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {"garbage line", TestLines()[0]}).ok());
  JoinConfig config;
  auto result = RunStage1(&dfs, "in", "ordering", config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->jobs[0].counters.Get("stage1.bad_records"), 1);
  EXPECT_EQ(dfs.ReadFile("ordering").value()->size(), 3u);  // a, b, c
}

TEST(Stage1Test, QGramTokenizerIsHonored) {
  mr::Dfs dfs;
  ASSERT_TRUE(
      dfs.WriteFile("in", {data::Record{1, "ab", "", "p"}.ToLine()}).ok());
  JoinConfig config;
  config.tokenizer = std::make_shared<text::QGramTokenizer>(2);
  auto result = RunStage1(&dfs, "in", "ordering", config);
  ASSERT_TRUE(result.ok());
  // "ab " + authors "" -> join attr "ab " -> "$ab#" -> $a, ab, b#.
  auto lines = dfs.ReadFile("ordering").value();
  EXPECT_EQ(lines->size(), 3u);
}

}  // namespace
}  // namespace fj::join
