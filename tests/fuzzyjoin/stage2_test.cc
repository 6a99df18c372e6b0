// Stage-2 (kernel) unit tests: BK and PK must agree pair-for-pair under
// both routing strategies; the composite-key machinery (partition on group,
// secondary sort on length) must bound PK's resident memory; duplicate
// pairs across groups are expected and byte-identical; filter counters
// fire.
#include "fuzzyjoin/stage2.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/string_util.h"
#include "data/generator.h"
#include "fuzzyjoin/stage1.h"
#include "mapreduce/dfs.h"
#include "mapreduce/record_format.h"

namespace fj::join {
namespace {

struct Stage2Run {
  std::set<std::pair<uint64_t, uint64_t>> pairs;  // deduplicated
  size_t raw_lines = 0;                           // with duplicates
  mr::JobMetrics metrics;
};

Stage2Run RunKernel(mr::Dfs* dfs, const JoinConfig& config) {
  auto result =
      RunStage2SelfJoin(dfs, "records", "ordering",
                        "pairs-" + std::string(Stage2Name(config.stage2)) +
                            std::to_string(config.num_groups) +
                            (config.routing == TokenRouting::kGroupedTokens
                                 ? "g"
                                 : "i"),
                        config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  Stage2Run run;
  if (!result.ok()) return run;
  run.metrics = result->jobs.at(0);
  auto lines = dfs->ReadFile(result->pairs_file);
  EXPECT_TRUE(lines.ok());
  run.raw_lines = lines.value()->size();
  for (const auto& line : *lines.value()) {
    auto parsed = ParseRidPairLine(line);
    EXPECT_TRUE(parsed.ok()) << line;
    auto [rid1, rid2, sim] = parsed.value();
    EXPECT_LT(rid1, rid2);
    EXPECT_GE(sim, 0.8 - 1e-9);
    run.pairs.emplace(rid1, rid2);
  }
  return run;
}

class Stage2Test : public testing::Test {
 protected:
  void SetUp() override {
    auto config = data::DblpLikeConfig(350, 41);
    config.payload_bytes = 16;
    auto records = data::GenerateRecords(config);
    ASSERT_TRUE(dfs_.WriteFile("records", data::RecordsToLines(records)).ok());
    JoinConfig join_config;
    ASSERT_TRUE(RunStage1(&dfs_, "records", "ordering", join_config).ok());
  }

  mr::Dfs dfs_;
};

TEST_F(Stage2Test, BkAndPkProduceIdenticalPairSets) {
  JoinConfig bk;
  bk.stage2 = Stage2Algorithm::kBK;
  JoinConfig pk;
  pk.stage2 = Stage2Algorithm::kPK;
  auto bk_run = RunKernel(&dfs_, bk);
  auto pk_run = RunKernel(&dfs_, pk);
  EXPECT_EQ(bk_run.pairs, pk_run.pairs);
  EXPECT_FALSE(bk_run.pairs.empty());
}

TEST_F(Stage2Test, RoutingStrategiesProduceIdenticalPairSets) {
  JoinConfig individual;
  individual.routing = TokenRouting::kIndividualTokens;
  auto individual_run = RunKernel(&dfs_, individual);
  for (uint32_t groups : {1u, 4u, 64u}) {
    JoinConfig grouped;
    grouped.routing = TokenRouting::kGroupedTokens;
    grouped.num_groups = groups;
    auto grouped_run = RunKernel(&dfs_, grouped);
    EXPECT_EQ(grouped_run.pairs, individual_run.pairs)
        << groups << " groups";
  }
}

TEST_F(Stage2Test, FewerGroupsMeanFewerReplicasShuffled) {
  // Grouped routing with few groups coalesces prefix tokens, so fewer
  // (key, projection) replicas cross the shuffle (Section 3.2's motivation
  // for grouped tokens).
  JoinConfig individual;
  individual.routing = TokenRouting::kIndividualTokens;
  JoinConfig one_group;
  one_group.routing = TokenRouting::kGroupedTokens;
  one_group.num_groups = 1;
  auto individual_run = RunKernel(&dfs_, individual);
  auto one_group_run = RunKernel(&dfs_, one_group);
  EXPECT_LT(one_group_run.metrics.shuffle_records,
            individual_run.metrics.shuffle_records);
}

TEST_F(Stage2Test, DuplicatePairLinesAreByteIdentical) {
  // The same pair verified in several reducers must serialize identically
  // (stage 3 deduplicates by string equality).
  JoinConfig config;
  config.stage2 = Stage2Algorithm::kBK;
  auto result = RunStage2SelfJoin(&dfs_, "records", "ordering", "dups", config);
  ASSERT_TRUE(result.ok());
  auto lines = dfs_.ReadFile("dups").value();
  std::map<std::pair<uint64_t, uint64_t>, std::set<std::string>> variants;
  for (const auto& line : *lines) {
    auto [rid1, rid2, sim] = ParseRidPairLine(line).value();
    (void)sim;
    variants[{rid1, rid2}].insert(line);
  }
  bool saw_duplicate = false;
  for (const auto& [pair, forms] : variants) {
    EXPECT_EQ(forms.size(), 1u)
        << "pair " << pair.first << "," << pair.second
        << " serialized in multiple forms";
    saw_duplicate = true;
  }
  EXPECT_TRUE(saw_duplicate);
}

TEST_F(Stage2Test, PkEvictionBoundsResidentMemory) {
  JoinConfig pk;
  pk.stage2 = Stage2Algorithm::kPK;
  pk.routing = TokenRouting::kGroupedTokens;
  pk.num_groups = 1;  // one giant group -> eviction actually matters
  pk.num_reduce_tasks = 1;
  auto run = RunKernel(&dfs_, pk);
  int64_t peak = run.metrics.counters.Get("stage2.pk.peak_resident_tokens");
  int64_t evicted = run.metrics.counters.Get("stage2.pk.evicted_records");
  ASSERT_GT(peak, 0);
  EXPECT_GT(evicted, 0) << "length filter never evicted despite one group";
  // Peak resident tokens must be below the total token volume shuffled.
  int64_t total_tokens = 0;
  auto lines = dfs_.ReadFile("records").value();
  total_tokens = static_cast<int64_t>(lines->size()) * 8;  // ~8 tokens/record
  EXPECT_LT(peak, total_tokens);
}

TEST_F(Stage2Test, PkFilterCountersFire) {
  JoinConfig pk;
  pk.stage2 = Stage2Algorithm::kPK;
  auto run = RunKernel(&dfs_, pk);
  const auto& counters = run.metrics.counters;
  EXPECT_GT(counters.Get("stage2.pk.probes"), 0);
  EXPECT_GT(counters.Get("stage2.pk.candidates"), 0);
  EXPECT_GT(counters.Get("stage2.pk.results"), 0);
  EXPECT_GE(counters.Get("stage2.pk.candidates"),
            counters.Get("stage2.pk.verified"));
}

TEST_F(Stage2Test, BkLengthFilterCounterFires) {
  JoinConfig bk;
  bk.stage2 = Stage2Algorithm::kBK;
  auto run = RunKernel(&dfs_, bk);
  const auto& counters = run.metrics.counters;
  EXPECT_GT(counters.Get("stage2.bk.pairs_considered"), 0);
  EXPECT_GT(counters.Get("stage2.bk.length_filtered"), 0);
  EXPECT_GT(counters.Get("stage2.bk.results"), 0);
}

TEST(Stage2ProjectionTest, ProjectionsNotWholeRecordsAreShuffled) {
  // The paper's projection decision: with realistic record sizes (payload
  // dominates), stage-2 shuffle bytes stay below the raw input bytes even
  // though projections are replicated per prefix token — the kernel never
  // carries the payload.
  auto records = data::GenerateRecords(data::DblpLikeConfig(350, 41));
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", data::RecordsToLines(records)).ok());
  JoinConfig config;
  ASSERT_TRUE(RunStage1(&dfs, "records", "ordering", config).ok());
  config.stage2 = Stage2Algorithm::kPK;
  auto run = RunKernel(&dfs, config);
  auto input_bytes = dfs.FileBytes("records").value();
  EXPECT_LT(run.metrics.shuffle_bytes, input_bytes);
}

TEST(Stage2EdgeTest, MissingOrderingFileFails) {
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", {"1\tt\ta\tp"}).ok());
  JoinConfig config;
  auto result = RunStage2SelfJoin(&dfs, "records", "no-ordering", "out", config);
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(Stage2EdgeTest, MalformedOrderingFailsBothDrivers) {
  // A text ordering with a line that has no tab, or a repeated token, used
  // to reach every map task as an empty ordering: the kernel then ran to
  // an OK status with no pairs. The drivers now parse it first.
  auto records = data::GenerateRecords(data::DblpLikeConfig(120, 44));
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", data::RecordsToLines(records)).ok());
  JoinConfig config;
  ASSERT_TRUE(RunStage1(&dfs, "records", "ordering", config).ok());
  std::vector<std::string> good = *dfs.ReadFile("ordering").value();
  ASSERT_GT(good.size(), 3u);
  const std::string token = good[1].substr(0, good[1].find('\t'));

  struct Case {
    const char* name;
    std::vector<std::string> lines;
    std::string quoted;  // what the message must quote
  };
  std::vector<Case> cases;
  cases.push_back({"no tab", good, ""});
  cases.back().lines[2] = "line-without-a-tab";
  cases.back().quoted = fj::ErrorExcerpt("line-without-a-tab");
  cases.push_back({"duplicate token", good, fj::ErrorExcerpt(token)});
  cases.back().lines[2] = token + "\t7";
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string file = std::string("bad-ordering-") + c.name;
    ASSERT_TRUE(dfs.WriteFile(file, c.lines).ok());
    auto self = RunStage2SelfJoin(&dfs, "records", file, file + ".self",
                                  config);
    EXPECT_EQ(self.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(self.status().message().find(c.quoted), std::string::npos)
        << self.status().message();
    EXPECT_FALSE(dfs.Exists(file + ".self"));
    auto rs = RunStage2RSJoin(&dfs, "records", "records", file, file + ".rs",
                              config);
    EXPECT_EQ(rs.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rs.status().message().find(c.quoted), std::string::npos)
        << rs.status().message();
    EXPECT_FALSE(dfs.Exists(file + ".rs"));
  }
}

TEST(Stage2EdgeTest, PairLineRoundTrip) {
  std::string line = FormatRidPairLine(12, 99, 0.8125);
  auto parsed = ParseRidPairLine(line);
  ASSERT_TRUE(parsed.ok());
  auto [rid1, rid2, sim] = parsed.value();
  EXPECT_EQ(rid1, 12u);
  EXPECT_EQ(rid2, 99u);
  EXPECT_NEAR(sim, 0.8125, 1e-9);
  EXPECT_FALSE(ParseRidPairLine("1\t2").ok());
  EXPECT_FALSE(ParseRidPairLine("1\t2\tx").ok());
}

// ---- Oracle: the Split-based RID-pair parser the in-place one replaced.
// ParseRidPairLine must return its values, or its Status code and
// message, on every line.

using RidPair = std::tuple<uint64_t, uint64_t, double>;

Result<RidPair> ReferenceParseRidPairLine(const std::string& line) {
  std::vector<std::string> fields = fj::Split(line, '\t');
  if (fields.size() != 3) {
    return Status::InvalidArgument("bad rid-pair line: " +
                                   fj::ErrorExcerpt(line));
  }
  FJ_ASSIGN_OR_RETURN(uint64_t rid1, fj::ParseUint64(fields[0]));
  FJ_ASSIGN_OR_RETURN(uint64_t rid2, fj::ParseUint64(fields[1]));
  FJ_ASSIGN_OR_RETURN(double similarity, fj::ParseDouble(fields[2]));
  return RidPair(rid1, rid2, similarity);
}

void ExpectPairParserMatchesReference(const std::string& line) {
  const Result<RidPair> want = ReferenceParseRidPairLine(line);
  const Result<RidPair> got = ParseRidPairLine(line);
  ASSERT_EQ(got.ok(), want.ok());
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  EXPECT_EQ(std::get<0>(*got), std::get<0>(*want));
  EXPECT_EQ(std::get<1>(*got), std::get<1>(*want));
  // Bitwise, so a NaN similarity compares too.
  const double got_sim = std::get<2>(*got);
  const double want_sim = std::get<2>(*want);
  EXPECT_EQ(std::memcmp(&got_sim, &want_sim, sizeof(double)), 0);
}

/// One random edit: a tab removed or added, a field emptied or replaced
/// by a bad number, a byte >= 0x80, an embedded NUL, or a flipped or
/// dropped byte.
void MutatePairLine(fj::Rng* rng, std::string* line) {
  const size_t at = line->empty() ? 0 : rng->NextBelow(line->size() + 1);
  static const char* const kFields[] = {
      "", "x", "12a", "-5", "+5", " 7", "18446744073709551615",
      "18446744073709551616", "99999999999999999999", "0.5", "1e-3",
      " 0.25", "0.25 ", "nan", "inf", "0x1p-1", "1.5.5", "1e999", ".5"};
  switch (rng->NextBelow(7)) {
    case 0: {
      const size_t tab = line->find('\t', at);
      if (tab != std::string::npos) line->erase(tab, 1);
      break;
    }
    case 1:
      line->insert(at, 1, '\t');
      break;
    case 2: {  // replace the field around `at`
      const size_t begin = line->rfind('\t', at == 0 ? 0 : at - 1);
      const size_t from = begin == std::string::npos ? 0 : begin + 1;
      const size_t end = line->find('\t', from);
      line->replace(from,
                    (end == std::string::npos ? line->size() : end) - from,
                    kFields[rng->NextBelow(std::size(kFields))]);
      break;
    }
    case 3:
      line->insert(at, 1, static_cast<char>(0x80 + rng->NextBelow(128)));
      break;
    case 4:
      line->insert(at, 1, '\0');
      break;
    case 5:
      if (!line->empty()) {
        (*line)[rng->NextBelow(line->size())] ^=
            static_cast<char>(1 + rng->NextBelow(255));
      }
      break;
    default:
      if (!line->empty()) line->erase(rng->NextBelow(line->size()), 1);
      break;
  }
}

TEST(Stage2EdgeTest, PairLineParserMatchesSplitReference) {
  fj::Rng rng(20261018);
  size_t rejected = 0;
  for (size_t round = 0; round < 6000; ++round) {
    const uint64_t rid1 = rng.NextBelow(2) == 0 ? rng.NextBelow(1000)
                                                : rng.Next();
    const uint64_t rid2 = rng.NextBelow(1000000);
    const double similarity = rng.NextDouble();
    std::string line;
    FormatRidPairLine(rid1, rid2, similarity, &line);
    if (round % 4 == 0) ExpectPairParserMatchesReference(line);
    const size_t edits = 1 + rng.NextBelow(3);
    for (size_t e = 0; e < edits; ++e) MutatePairLine(&rng, &line);
    SCOPED_TRACE(fj::ErrorExcerpt(line));
    ExpectPairParserMatchesReference(line);
    if (!ReferenceParseRidPairLine(line).ok()) ++rejected;
  }
  EXPECT_GT(rejected, 1000u);
  EXPECT_LT(rejected, 5500u);
  for (const char* edge : {"", "\t", "\t\t", "1\t2\t", "\t2\t0.5",
                           "1\t\t0.5", "1\t2\t0.5\t", "1\t2\t0.5\t\t"}) {
    SCOPED_TRACE(fj::ErrorExcerpt(edge));
    ExpectPairParserMatchesReference(edge);
  }
}

// ---- Golden pins: all ten stage-2 variants on one seeded corpus.
// For each variant: a hash of the sorted RID-pair lines, the job's
// shuffle_records, shuffle_bytes and codec byte meters, and its whole
// counter snapshot (scratch and peak counters included). Grouped routing
// with three groups makes every block and length class hold several
// records.
// The values were captured when each variant still had its own mapper
// and reducer. Since one BK loop runs the length classes, their
// stage2.peak_group_records counts the native records a reducer holds,
// no longer natives plus visitors: 425 -> 188 under bk_length_routing,
// 259 -> 127 under length signatures. Nothing else moved.
//
// Since CounterSet::MergeFrom keeps the maximum of a counter set with Max,
// the four peak counters are the largest reduce task's peak, no longer the
// sum over the job's reduce tasks:
//   stage2.peak_group_records        self BK and R-S BK 510 -> 180,
//                                    length routing 188 -> 30,
//                                    length signatures 127 -> 38;
//   stage2.pk.arena_bytes            self PK and R-S PK 58576 -> 21232;
//   stage2.pk.peak_resident_tokens   self PK 2507 -> 852,
//                                    R-S PK 4557 -> 1525;
//   stage2.block.peak_memory_records all four block variants 198 -> 67.
//
// Since every spill run is an encoded run block, shuffle_bytes is the
// blocks' encoded size, no longer the ByteSizeOf estimate of typed pairs:
//   self BK, PK and BK reduce blocks 36612 -> 11439,
//   self BK map blocks 74904 -> 23360,
//   self BK length routing 81574 -> 25248,
//   self BK length signatures 35694 -> 11151,
//   R-S BK, PK and BK reduce blocks 62710 -> 25781,
//   R-S BK map blocks 114906 -> 54465;
// and every variant gains the codec meters codec_encoded_bytes and
// codec_logical_bytes (map encode plus reduce decode).

struct GoldenVariant {
  const char* name;
  bool rs;
  void (*configure)(JoinConfig*);
  uint64_t pairs_hash;
  uint64_t shuffle_records;
  uint64_t shuffle_bytes;
  uint64_t codec_encoded_bytes;
  uint64_t codec_logical_bytes;
  const char* counters;  // "name=value " per counter, in name order
};

std::string CounterLine(const fj::CounterSet& counters) {
  std::string line;
  for (const auto& [name, value] : counters.Snapshot()) {
    line += name + "=" + std::to_string(value) + " ";
  }
  return line;
}

TEST(Stage2GoldenTest, EveryVariantIsPinned) {
  constexpr BlockProcessing kMapBlocks = BlockProcessing::kMapBased;
  constexpr BlockProcessing kReduceBlocks = BlockProcessing::kReduceBased;
  const std::vector<GoldenVariant> variants = {
      {"self BK", false,
       [](JoinConfig*) {},
       0x0b10ad2bcfbbb496ULL, 510, 11439, 22878, 22686,
       "stage2.bk.length_filtered=28722 "
       "stage2.bk.pairs_considered=43174 "
       "stage2.bk.results=104 "
       "stage2.bk.verified=14452 "
       "stage2.peak_group_records=180 "
       "stage2.projections=240 "},
      {"self PK", false,
       [](JoinConfig* c) { c->stage2 = Stage2Algorithm::kPK; },
       0x0b10ad2bcfbbb496ULL, 510, 11439, 22878, 22686,
       "stage2.pk.arena_bytes=21232 "
       "stage2.pk.bitmap_pruned=11 "
       "stage2.pk.candidates=115 "
       "stage2.pk.evicted_records=425 "
       "stage2.pk.hash_lookups_avoided=2754 "
       "stage2.pk.peak_resident_tokens=852 "
       "stage2.pk.positional_pruned=4 "
       "stage2.pk.probes=510 "
       "stage2.pk.results=104 "
       "stage2.pk.suffix_pruned=0 "
       "stage2.pk.verified=104 "
       "stage2.projections=240 "},
      {"self BK map blocks", false,
       [](JoinConfig* c) { c->block_processing = kMapBlocks; },
       0x0b10ad2bcfbbb496ULL, 1042, 23360, 46720, 46528,
       "stage2.bk.length_filtered=28722 "
       "stage2.bk.pairs_considered=43174 "
       "stage2.bk.results=104 "
       "stage2.bk.verified=14452 "
       "stage2.block.peak_memory_records=67 "
       "stage2.projections=240 "},
      {"self BK reduce blocks", false,
       [](JoinConfig* c) { c->block_processing = kReduceBlocks; },
       0x0b10ad2bcfbbb496ULL, 510, 11439, 22878, 22686,
       "scratch.bytes_read=32695 "
       "scratch.bytes_written=20263 "
       "stage2.bk.length_filtered=28722 "
       "stage2.bk.pairs_considered=43174 "
       "stage2.bk.results=104 "
       "stage2.bk.verified=14452 "
       "stage2.block.peak_memory_records=67 "
       "stage2.projections=240 "},
      {"self BK length routing", false,
       [](JoinConfig* c) { c->bk_length_routing = true; },
       0x0b10ad2bcfbbb496ULL, 1069, 25248, 50496, 50002,
       "stage2.bk.length_filtered=1645 "
       "stage2.bk.pairs_considered=16097 "
       "stage2.bk.results=104 "
       "stage2.bk.verified=14452 "
       "stage2.peak_group_records=30 "
       "stage2.projections=240 "},
      {"self BK length signatures", false,
       [](JoinConfig* c) { c->routing = TokenRouting::kLengthSignatures; },
       0xbe1357df5321796aULL, 483, 11151, 22302, 22032,
       "stage2.bk.length_filtered=1124 "
       "stage2.bk.pairs_considered=10132 "
       "stage2.bk.results=52 "
       "stage2.bk.verified=9008 "
       "stage2.peak_group_records=38 "
       "stage2.projections=240 "},
      {"R-S BK", true,
       [](JoinConfig*) {},
       0x0fa635eac00a1ea6ULL, 907, 25781, 51562, 51370,
       "stage2.bk.length_filtered=45754 "
       "stage2.bk.pairs_considered=67652 "
       "stage2.bk.results=148 "
       "stage2.bk.verified=21898 "
       "stage2.peak_group_records=180 "
       "stage2.projections=440 "},
      {"R-S PK", true,
       [](JoinConfig* c) { c->stage2 = Stage2Algorithm::kPK; },
       0x0fa635eac00a1ea6ULL, 907, 25781, 51562, 51370,
       "stage2.pk.arena_bytes=21232 "
       "stage2.pk.bitmap_pruned=46 "
       "stage2.pk.candidates=194 "
       "stage2.pk.evicted_records=399 "
       "stage2.pk.hash_lookups_avoided=2879 "
       "stage2.pk.peak_resident_tokens=1525 "
       "stage2.pk.positional_pruned=102 "
       "stage2.pk.probes=397 "
       "stage2.pk.results=148 "
       "stage2.pk.suffix_pruned=0 "
       "stage2.pk.verified=148 "
       "stage2.projections=440 "},
      {"R-S BK map blocks", true,
       [](JoinConfig* c) { c->block_processing = kMapBlocks; },
       0x0fa635eac00a1ea6ULL, 1701, 54465, 108930, 108738,
       "stage2.bk.length_filtered=45754 "
       "stage2.bk.pairs_considered=67652 "
       "stage2.bk.results=148 "
       "stage2.bk.verified=21898 "
       "stage2.block.peak_memory_records=67 "
       "stage2.projections=440 "},
      {"R-S BK reduce blocks", true,
       [](JoinConfig* c) { c->block_processing = kReduceBlocks; },
       0x0fa635eac00a1ea6ULL, 907, 25781, 51562, 51370,
       "scratch.bytes_read=88515 "
       "scratch.bytes_written=54389 "
       "stage2.bk.length_filtered=45754 "
       "stage2.bk.pairs_considered=67652 "
       "stage2.bk.results=148 "
       "stage2.bk.verified=21898 "
       "stage2.block.peak_memory_records=67 "
       "stage2.projections=440 "},
  };

  auto r_config = data::DblpLikeConfig(240, 91);
  r_config.payload_bytes = 8;
  r_config.title_tokens_min = 3;
  r_config.title_tokens_max = 20;
  const std::vector<data::Record> r = data::GenerateRecords(r_config);
  auto s_config = data::DblpLikeConfig(200, 92);
  s_config.payload_bytes = 8;
  s_config.first_rid = 100001;
  std::vector<data::Record> s = data::GenerateRecords(s_config);
  data::InjectOverlap(r, 0.3, /*max_edits=*/2, 93, &s);

  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("r", data::RecordsToLines(r)).ok());
  ASSERT_TRUE(dfs.WriteFile("s", data::RecordsToLines(s)).ok());
  ASSERT_TRUE(RunStage1(&dfs, "r", "ordering", JoinConfig{}).ok());

  for (const GoldenVariant& v : variants) {
    SCOPED_TRACE(v.name);
    JoinConfig config;
    config.stage2 = Stage2Algorithm::kBK;
    config.routing = TokenRouting::kGroupedTokens;
    config.num_groups = 3;
    config.num_blocks = 3;
    config.length_class_width = 2;
    v.configure(&config);
    const std::string out = std::string("golden ") + v.name;
    auto result =
        v.rs ? RunStage2RSJoin(&dfs, "r", "s", "ordering", out, config)
             : RunStage2SelfJoin(&dfs, "r", "ordering", out, config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->jobs.size(), 1u);
    const mr::JobMetrics& job = result->jobs[0];
    std::vector<std::string> lines = *dfs.ReadFile(out).value();
    std::sort(lines.begin(), lines.end());
    std::string joined;
    for (const std::string& line : lines) joined += line + "\n";
    char hash[24];
    std::snprintf(hash, sizeof(hash), "0x%016llxULL",
                  static_cast<unsigned long long>(HashString(joined)));
    EXPECT_EQ(HashString(joined), v.pairs_hash) << hash;
    EXPECT_EQ(job.shuffle_records, v.shuffle_records);
    EXPECT_EQ(job.shuffle_bytes, v.shuffle_bytes);
    EXPECT_EQ(job.codec_encoded_bytes, v.codec_encoded_bytes);
    EXPECT_EQ(job.codec_logical_bytes, v.codec_logical_bytes);
    EXPECT_EQ(CounterLine(job.counters), v.counters);
    // A peak group is held by one reducer, so it is never larger than the
    // largest reduce task's input.
    uint64_t largest_task = 0;
    for (const mr::TaskMetrics& task : job.reduce_tasks) {
      largest_task = std::max(largest_task, task.input_records);
    }
    EXPECT_LE(job.counters.Get("stage2.peak_group_records"),
              static_cast<int64_t>(largest_task));
  }
}

}  // namespace
}  // namespace fj::join
