// Record serialization, synthetic generators, and the paper's
// dataset-increase technique (whose two invariants — constant token
// dictionary and linear join-result growth — are verified here).
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "data/generator.h"
#include "data/increase.h"
#include "data/record.h"
#include "ppjoin/naive.h"
#include "text/token_ordering.h"
#include "text/tokenizer.h"

namespace fj::data {
namespace {

TEST(RecordTest, LineRoundTrip) {
  Record r{42, "a title", "some authors", "payload with spaces"};
  auto parsed = Record::FromLine(r.ToLine());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), r);
}

TEST(RecordTest, PayloadMayContainTabs) {
  // SplitN(4) keeps everything after the third tab in the payload.
  auto parsed = Record::FromLine("7\tt\ta\tpay\tload");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->payload, "pay\tload");
}

TEST(RecordTest, RejectsMalformedLines) {
  EXPECT_FALSE(Record::FromLine("").ok());
  EXPECT_FALSE(Record::FromLine("1\tt\ta").ok());       // 3 fields
  EXPECT_FALSE(Record::FromLine("x\tt\ta\tp").ok());    // bad rid
}

TEST(RecordTest, JoinAttributeConcatenatesTitleAndAuthors) {
  Record r{1, "deep joins", "mcfoo mcbar", "p"};
  EXPECT_EQ(r.JoinAttribute(), "deep joins mcfoo mcbar");
  std::string buffer = "stale contents";
  r.View().JoinAttributeInto(&buffer);
  EXPECT_EQ(buffer, r.JoinAttribute());
}

// A view into a temporary line would dangle: that overload is deleted.
template <typename Line>
concept ViewParses = requires(Line&& line) {
  RecordView::FromLine(std::forward<Line>(line));
};
static_assert(ViewParses<const std::string&>);
static_assert(ViewParses<std::string&>);
static_assert(!ViewParses<std::string>);

// ---- Oracle: the SplitN-based record parser the view parser replaced.
// Record::FromLine and RecordView::FromLine must return its fields, or
// its Status code and message, on every line.

Result<Record> ReferenceFromLine(const std::string& line) {
  std::vector<std::string> fields = fj::SplitN(line, '\t', 4);
  if (fields.size() != 4) {
    return Status::InvalidArgument("bad record line (want 4 fields): " +
                                   fj::ErrorExcerpt(line));
  }
  FJ_ASSIGN_OR_RETURN(uint64_t rid, fj::ParseUint64(fields[0]));
  Record record;
  record.rid = rid;
  record.title = std::move(fields[1]);
  record.authors = std::move(fields[2]);
  record.payload = std::move(fields[3]);
  return record;
}

void ExpectParsersMatchReference(const std::string& line) {
  const Result<Record> want = ReferenceFromLine(line);
  const Result<Record> got = Record::FromLine(line);
  const Result<RecordView> view = RecordView::FromLine(line);
  ASSERT_EQ(got.ok(), want.ok());
  ASSERT_EQ(view.ok(), want.ok());
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    EXPECT_EQ(view.status().code(), want.status().code());
    EXPECT_EQ(view.status().message(), want.status().message());
    return;
  }
  EXPECT_EQ(got.value(), want.value());
  EXPECT_EQ(view->rid, want->rid);
  EXPECT_EQ(view->title, want->title);
  EXPECT_EQ(view->authors, want->authors);
  EXPECT_EQ(view->payload, want->payload);
  std::string attribute;
  view->JoinAttributeInto(&attribute);
  EXPECT_EQ(attribute, want->JoinAttribute());
}

/// One random edit of the kinds a damaged record line shows: a tab removed
/// or added, a field emptied, a bad or 20-digit rid, a byte >= 0x80, or an
/// embedded NUL.
void MutateRecordLine(fj::Rng* rng, std::string* line) {
  const size_t at = line->empty() ? 0 : rng->NextBelow(line->size() + 1);
  switch (rng->NextBelow(7)) {
    case 0: {  // remove a tab
      const size_t tab = line->find('\t', at);
      if (tab != std::string::npos) line->erase(tab, 1);
      break;
    }
    case 1:  // add a tab
      line->insert(at, 1, '\t');
      break;
    case 2: {  // empty the field around `at`
      const size_t begin = line->rfind('\t', at == 0 ? 0 : at - 1);
      const size_t from = begin == std::string::npos ? 0 : begin + 1;
      const size_t end = line->find('\t', from);
      line->erase(from, (end == std::string::npos ? line->size() : end) - from);
      break;
    }
    case 3: {  // a non-digit rid
      static const char* const kBad[] = {"", "x", "12a", "-5", "+5", " 7",
                                         "7 ", "0x1f", "1.0"};
      const size_t tab = line->find('\t');
      line->replace(0, tab == std::string::npos ? line->size() : tab,
                    kBad[rng->NextBelow(std::size(kBad))]);
      break;
    }
    case 4: {  // a 20-digit rid: the largest uint64, one past it, or more
      static const char* const kWide[] = {"18446744073709551615",
                                          "18446744073709551616",
                                          "99999999999999999999",
                                          "00000000000000000042"};
      const size_t tab = line->find('\t');
      line->replace(0, tab == std::string::npos ? line->size() : tab,
                    kWide[rng->NextBelow(std::size(kWide))]);
      break;
    }
    case 5:  // a byte >= 0x80
      line->insert(at, 1, static_cast<char>(0x80 + rng->NextBelow(128)));
      break;
    default:  // an embedded NUL
      line->insert(at, 1, '\0');
      break;
  }
}

TEST(RecordParserOracleTest, MutatedLinesMatchTheSplitReference) {
  auto config = DblpLikeConfig(400, 71);
  config.payload_bytes = 40;
  const std::vector<std::string> lines =
      RecordsToLines(GenerateRecords(config));
  fj::Rng rng(20261017);
  size_t rejected = 0;
  for (size_t round = 0; round < 4000; ++round) {
    std::string line = lines[round % lines.size()];
    const size_t edits = rng.NextBelow(4);
    for (size_t e = 0; e < edits; ++e) MutateRecordLine(&rng, &line);
    SCOPED_TRACE(fj::ErrorExcerpt(line));
    ExpectParsersMatchReference(line);
    if (!ReferenceFromLine(line).ok()) ++rejected;
  }
  // Both outcomes occur often enough for the comparison to mean something.
  EXPECT_GT(rejected, 500u);
  EXPECT_LT(rejected, 3500u);
  for (const char* edge : {"", "\t", "\t\t\t", "1\t\t\t", "1\t\t\t\t",
                           "1\ta\tb", "\ta\tb\tc", "1\ta\tb\tc\td\te"}) {
    SCOPED_TRACE(fj::ErrorExcerpt(edge));
    ExpectParsersMatchReference(edge);
  }
}

TEST(RecordTest, LinesRoundTrip) {
  std::vector<Record> records{{1, "t1", "a1", "p1"}, {2, "t2", "a2", "p2"}};
  auto parsed = RecordsFromLines(RecordsToLines(records));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), records);
}

TEST(GeneratorTest, DeterministicForSeed) {
  auto a = GenerateRecords(DblpLikeConfig(50, 9));
  auto b = GenerateRecords(DblpLikeConfig(50, 9));
  auto c = GenerateRecords(DblpLikeConfig(50, 10));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(GeneratorTest, RidsAreSequentialFromFirstRid) {
  auto config = DblpLikeConfig(10, 1);
  config.first_rid = 100;
  auto records = GenerateRecords(config);
  ASSERT_EQ(records.size(), 10u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].rid, 100 + i);
  }
}

TEST(GeneratorTest, RecordLengthsMatchDatasetProfiles) {
  auto dblp = GenerateRecords(DblpLikeConfig(200, 3));
  auto citeseer = GenerateRecords(CiteseerxLikeConfig(200, 4));
  auto avg_bytes = [](const std::vector<Record>& records) {
    size_t total = 0;
    for (const auto& r : records) total += r.ToLine().size();
    return static_cast<double>(total) / records.size();
  };
  double dblp_avg = avg_bytes(dblp);
  double citeseer_avg = avg_bytes(citeseer);
  // Paper: DBLP ~259 B, CITESEERX ~1374 B (ratio ~5.3).
  EXPECT_NEAR(dblp_avg, 259, 80);
  EXPECT_NEAR(citeseer_avg, 1374, 300);
  EXPECT_GT(citeseer_avg / dblp_avg, 3.5);
}

TEST(GeneratorTest, DuplicateFractionCreatesSimilarPairs) {
  auto with_dups = DblpLikeConfig(300, 5);
  with_dups.duplicate_fraction = 0.3;
  auto no_dups = DblpLikeConfig(300, 5);
  no_dups.duplicate_fraction = 0.0;

  text::WordTokenizer tokenizer;
  auto count_pairs = [&](const std::vector<Record>& records) {
    std::map<std::string, uint64_t> counts;
    for (const auto& r : records) {
      for (const auto& t : tokenizer.Tokenize(r.JoinAttribute())) counts[t]++;
    }
    auto ordering =
        text::TokenOrdering::FromCounts({counts.begin(), counts.end()});
    std::vector<ppjoin::TokenSetRecord> sets;
    for (const auto& r : records) {
      sets.push_back(ppjoin::TokenSetRecord{
          r.rid, ordering.ToSortedIds(tokenizer.Tokenize(r.JoinAttribute()))});
    }
    sim::SimilaritySpec spec(sim::SimilarityFunction::kJaccard, 0.8);
    return ppjoin::NaiveSelfJoin(sets, spec).size();
  };
  EXPECT_GT(count_pairs(GenerateRecords(with_dups)),
            4 * count_pairs(GenerateRecords(no_dups)));
}

TEST(GeneratorTest, VocabWordsAreDistinctAndTabFree) {
  std::set<std::string> words;
  for (size_t i = 0; i < 3000; ++i) {
    auto w = VocabWord(i);
    EXPECT_TRUE(words.insert(w).second) << "duplicate word " << w;
    EXPECT_EQ(w.find('\t'), std::string::npos);
    EXPECT_EQ(w.find(' '), std::string::npos);
  }
  EXPECT_NE(VocabWord(3), AuthorWord(3));
}

TEST(GeneratorTest, InjectOverlapCreatesCrossDatasetMatches) {
  auto r = GenerateRecords(DblpLikeConfig(100, 6));
  auto s = GenerateRecords(CiteseerxLikeConfig(100, 7));
  std::set<std::string> r_titles;
  for (const auto& rec : r) r_titles.insert(rec.title);
  size_t before = 0;
  for (const auto& rec : s) before += r_titles.count(rec.title);

  InjectOverlap(r, 0.5, /*max_edits=*/0, 8, &s);
  size_t after = 0;
  for (const auto& rec : s) after += r_titles.count(rec.title);
  EXPECT_GT(after, before + 20);
  // Payloads and RIDs untouched.
  auto fresh = GenerateRecords(CiteseerxLikeConfig(100, 7));
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(s[i].rid, fresh[i].rid);
    EXPECT_EQ(s[i].payload, fresh[i].payload);
  }
}

// ------------------------------------------------------- dataset increase

std::set<std::string> Dictionary(const std::vector<Record>& records) {
  text::WordTokenizer tokenizer;
  std::set<std::string> dictionary;
  for (const auto& r : records) {
    for (const auto& t : tokenizer.Tokenize(r.JoinAttribute())) {
      dictionary.insert(t);
    }
  }
  return dictionary;
}

size_t CountJoinPairs(const std::vector<Record>& records) {
  text::WordTokenizer tokenizer;
  std::map<std::string, uint64_t> counts;
  for (const auto& r : records) {
    for (const auto& t : tokenizer.Tokenize(r.JoinAttribute())) counts[t]++;
  }
  auto ordering =
      text::TokenOrdering::FromCounts({counts.begin(), counts.end()});
  std::vector<ppjoin::TokenSetRecord> sets;
  for (const auto& r : records) {
    sets.push_back(ppjoin::TokenSetRecord{
        r.rid, ordering.ToSortedIds(tokenizer.Tokenize(r.JoinAttribute()))});
  }
  sim::SimilaritySpec spec(sim::SimilarityFunction::kJaccard, 0.8);
  return ppjoin::NaiveSelfJoin(sets, spec).size();
}

TEST(IncreaseTest, FactorOneIsIdentity) {
  auto base = GenerateRecords(DblpLikeConfig(30, 2));
  auto increased = IncreaseDataset(base, 1);
  ASSERT_TRUE(increased.ok());
  EXPECT_EQ(increased.value(), base);
}

TEST(IncreaseTest, FactorZeroRejected) {
  EXPECT_FALSE(IncreaseDataset({}, 0).ok());
}

TEST(IncreaseTest, SizeGrowsByFactorWithUniqueRids) {
  auto base = GenerateRecords(DblpLikeConfig(40, 3));
  auto increased = IncreaseDataset(base, 4);
  ASSERT_TRUE(increased.ok());
  EXPECT_EQ(increased->size(), 160u);
  std::set<uint64_t> rids;
  for (const auto& r : *increased) {
    EXPECT_TRUE(rids.insert(r.rid).second) << "duplicate rid " << r.rid;
  }
}

TEST(IncreaseTest, TokenDictionaryStaysConstant) {
  // The paper's first invariant: "maintained a roughly constant token
  // dictionary" — exactly constant here because the shift wraps around.
  auto base = GenerateRecords(DblpLikeConfig(120, 4));
  auto increased = IncreaseDataset(base, 5);
  ASSERT_TRUE(increased.ok());
  EXPECT_EQ(Dictionary(*increased), Dictionary(base));
}

TEST(IncreaseTest, JoinResultGrowsLinearly) {
  // The paper's second invariant: result cardinality grows linearly with
  // the increase factor (each shifted copy reproduces the base pairs).
  auto config = DblpLikeConfig(150, 5);
  auto base = GenerateRecords(config);
  size_t base_pairs = CountJoinPairs(base);
  ASSERT_GT(base_pairs, 5u);
  for (size_t factor : {2u, 3u, 4u}) {
    auto increased = IncreaseDataset(base, factor);
    ASSERT_TRUE(increased.ok());
    size_t pairs = CountJoinPairs(*increased);
    EXPECT_GE(pairs, factor * base_pairs);         // every copy contributes
    EXPECT_LE(pairs, factor * base_pairs * 3 / 2)  // few accidental extras
        << "factor " << factor;
  }
}

size_t CountRSPairs(const std::vector<Record>& r,
                    const std::vector<Record>& s) {
  text::WordTokenizer tokenizer;
  std::map<std::string, uint64_t> counts;
  for (const auto& rec : r) {
    for (const auto& t : tokenizer.Tokenize(rec.JoinAttribute())) counts[t]++;
  }
  auto ordering =
      text::TokenOrdering::FromCounts({counts.begin(), counts.end()});
  auto to_sets = [&](const std::vector<Record>& records) {
    std::vector<ppjoin::TokenSetRecord> sets;
    for (const auto& rec : records) {
      sets.push_back(ppjoin::TokenSetRecord{
          rec.rid,
          ordering.ToSortedIds(tokenizer.Tokenize(rec.JoinAttribute()))});
    }
    return sets;
  };
  sim::SimilaritySpec spec(sim::SimilarityFunction::kJaccard, 0.8);
  return ppjoin::NaiveRSJoin(to_sets(r), to_sets(s), spec).size();
}

TEST(IncreaseTest, JointIncreasePreservesCrossDatasetMatches) {
  // Increasing R and S with one shared token order must grow the R-S join
  // result linearly; independent orders would scramble copy-k matches.
  auto r = GenerateRecords(DblpLikeConfig(120, 7));
  auto s = GenerateRecords(CiteseerxLikeConfig(100, 8));
  InjectOverlap(r, 0.4, 1, 9, &s);
  size_t base_pairs = CountRSPairs(r, s);
  ASSERT_GT(base_pairs, 10u);

  for (size_t factor : {2u, 3u}) {
    auto r_copy = r;
    auto s_copy = s;
    ASSERT_TRUE(data::IncreaseDatasetsTogether(&r_copy, &s_copy, factor).ok());
    EXPECT_EQ(r_copy.size(), r.size() * factor);
    EXPECT_EQ(s_copy.size(), s.size() * factor);
    size_t pairs = CountRSPairs(r_copy, s_copy);
    EXPECT_GE(pairs, factor * base_pairs);
    EXPECT_LE(pairs, factor * base_pairs * 3 / 2) << "factor " << factor;
  }

  // Contrast: independent increases lose the cross-copy matches.
  auto r_indep = IncreaseDataset(r, 3);
  auto s_indep = IncreaseDataset(s, 3);
  ASSERT_TRUE(r_indep.ok());
  ASSERT_TRUE(s_indep.ok());
  EXPECT_LT(CountRSPairs(*r_indep, *s_indep), 3 * base_pairs);
}

TEST(IncreaseTest, JointIncreaseFactorValidation) {
  std::vector<Record> r{{1, "a b", "c", "p"}};
  std::vector<Record> s{{1, "a d", "c", "p"}};
  EXPECT_FALSE(data::IncreaseDatasetsTogether(&r, &s, 0).ok());
  EXPECT_TRUE(data::IncreaseDatasetsTogether(&r, &s, 1).ok());
  EXPECT_EQ(r.size(), 1u);  // factor 1 is a no-op
}

TEST(IncreaseTest, PayloadsPreservedInCopies) {
  auto base = GenerateRecords(DblpLikeConfig(20, 6));
  auto increased = IncreaseDataset(base, 2);
  ASSERT_TRUE(increased.ok());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ((*increased)[base.size() + i].payload, base[i].payload);
    EXPECT_NE((*increased)[base.size() + i].title, base[i].title);
  }
}

}  // namespace
}  // namespace fj::data
