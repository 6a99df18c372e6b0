// Kernel correctness: PPJoin, PPJoin+, and All-Pairs must produce exactly
// the naive ground truth on randomized inputs, for self-joins and R-S
// joins, across similarity functions and thresholds. Also checks the
// memory-footprint behaviour (length-filter eviction) and filter stats.
#include "ppjoin/ppjoin.h"

#include <algorithm>
#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "ppjoin/allpairs.h"
#include "ppjoin/naive.h"
#include "text/token_ordering.h"

namespace fj::ppjoin {
namespace {

using sim::SimilarityFunction;
using sim::SimilaritySpec;

/// Random record collection over a Zipf-ish universe, with injected
/// near-duplicates so joins have results.
std::vector<TokenSetRecord> RandomRecords(size_t n, uint64_t seed,
                                          size_t universe = 120,
                                          size_t max_len = 14) {
  fj::Rng rng(seed);
  std::vector<TokenSetRecord> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    TokenSetRecord record;
    record.rid = 1000 + i;
    if (!records.empty() && rng.NextBool(0.3)) {
      // Mutated copy of an earlier record.
      record.tokens = records[rng.NextBelow(records.size())].tokens;
      if (!record.tokens.empty() && rng.NextBool(0.6)) {
        record.tokens.erase(record.tokens.begin() +
                            static_cast<ptrdiff_t>(
                                rng.NextBelow(record.tokens.size())));
      }
      if (rng.NextBool(0.6)) {
        record.tokens.push_back(rng.NextBelow(universe));
      }
      std::sort(record.tokens.begin(), record.tokens.end());
      record.tokens.erase(
          std::unique(record.tokens.begin(), record.tokens.end()),
          record.tokens.end());
    } else {
      size_t len = 1 + rng.NextBelow(max_len);
      while (record.tokens.size() < len) {
        record.tokens.push_back(rng.NextBelow(universe));
        std::sort(record.tokens.begin(), record.tokens.end());
        record.tokens.erase(
            std::unique(record.tokens.begin(), record.tokens.end()),
            record.tokens.end());
      }
    }
    records.push_back(std::move(record));
  }
  return records;
}

struct KernelParam {
  SimilarityFunction fn;
  double tau;
  bool positional;
  bool suffix;
};

std::string KernelName(const testing::TestParamInfo<KernelParam>& info) {
  const KernelParam& p = info.param;
  std::string name = sim::SimilarityFunctionName(p.fn);
  name += '_';
  name += std::to_string(static_cast<int>(p.tau * 100));
  if (p.positional && p.suffix) {
    name += "_ppjoinplus";
  } else if (p.positional) {
    name += "_ppjoin";
  } else {
    name += "_allpairs";
  }
  return name;
}

class KernelEquivalenceTest : public testing::TestWithParam<KernelParam> {};

TEST_P(KernelEquivalenceTest, SelfJoinMatchesNaive) {
  const KernelParam& p = GetParam();
  SimilaritySpec spec(p.fn, p.tau);
  PPJoinOptions options;
  options.use_positional_filter = p.positional;
  options.use_suffix_filter = p.suffix;

  for (uint64_t seed : {1u, 2u, 3u}) {
    auto records = RandomRecords(150, seed);
    auto expected = NaiveSelfJoin(records, spec);
    auto got = PPJoinSelfJoin(records, spec, options);
    EXPECT_EQ(got, expected) << "seed " << seed;
  }
}

TEST_P(KernelEquivalenceTest, RSJoinMatchesNaive) {
  const KernelParam& p = GetParam();
  SimilaritySpec spec(p.fn, p.tau);
  PPJoinOptions options;
  options.use_positional_filter = p.positional;
  options.use_suffix_filter = p.suffix;

  auto r_records = RandomRecords(120, 5);
  auto s_records = RandomRecords(100, 6);
  // Make some S records near-duplicates of R records.
  fj::Rng rng(7);
  for (size_t i = 0; i < s_records.size(); i += 4) {
    s_records[i].tokens = r_records[rng.NextBelow(r_records.size())].tokens;
  }
  auto expected = NaiveRSJoin(r_records, s_records, spec);
  auto got = PPJoinRSJoin(r_records, s_records, spec, options);
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, KernelEquivalenceTest,
    testing::Values(
        KernelParam{SimilarityFunction::kJaccard, 0.8, true, true},
        KernelParam{SimilarityFunction::kJaccard, 0.8, true, false},
        KernelParam{SimilarityFunction::kJaccard, 0.8, false, false},
        KernelParam{SimilarityFunction::kJaccard, 0.5, true, true},
        KernelParam{SimilarityFunction::kJaccard, 0.95, true, true},
        KernelParam{SimilarityFunction::kCosine, 0.8, true, true},
        KernelParam{SimilarityFunction::kCosine, 0.9, false, false},
        KernelParam{SimilarityFunction::kDice, 0.8, true, true},
        KernelParam{SimilarityFunction::kDice, 0.7, true, false},
        KernelParam{SimilarityFunction::kOverlap, 0.8, true, true}),
    KernelName);

TEST(PPJoinStreamTest, EmptyAndSingletonInputs) {
  SimilaritySpec spec(SimilarityFunction::kJaccard, 0.8);
  PPJoinStream stream(spec);
  std::vector<SimilarPair> out;
  stream.ProbeAndInsert(TokenSetRecord{1, {}}, &out);  // empty record
  stream.ProbeAndInsert(TokenSetRecord{2, {5}}, &out);
  EXPECT_TRUE(out.empty());
  stream.ProbeAndInsert(TokenSetRecord{3, {5}}, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (SimilarPair{2, 3, 1.0}));
}

TEST(PPJoinStreamTest, LengthFilterEvictsShortRecords) {
  SimilaritySpec spec(SimilarityFunction::kJaccard, 0.8);
  PPJoinStream stream(spec);
  std::vector<SimilarPair> out;
  // Insert records of strictly growing lengths; once a probe's lower bound
  // passes a record's length it must be evicted.
  for (size_t len = 1; len <= 40; ++len) {
    TokenSetRecord record;
    record.rid = len;
    for (size_t t = 0; t < len; ++t) {
      record.tokens.push_back(1000 * len + t);  // all-distinct universes
    }
    stream.ProbeAndInsert(record, &out);
  }
  EXPECT_TRUE(out.empty());
  EXPECT_GT(stream.stats().evicted_records, 0u);
  // Peak residency must be far below the total token count (sum 1..40).
  EXPECT_LT(stream.stats().peak_resident_tokens, 820u / 2);
}

TEST(PPJoinStreamTest, ArenaCompactionUnderHeavyEviction) {
  // Growing lengths over a shared universe force the length filter to
  // evict most of the index, which must trigger arena compaction (the
  // dead prefix repeatedly outgrows the live suffix) while keeping
  // results and the resident-token accounting exact. Run under
  // ASan/UBSan in CI, this test also shakes out stale arena pointers.
  SimilaritySpec spec(SimilarityFunction::kJaccard, 0.8);
  std::vector<TokenSetRecord> records;
  for (size_t i = 0; i < 240; ++i) {
    TokenSetRecord record;
    record.rid = i + 1;
    size_t len = 2 + i / 3;  // three records per length, non-decreasing
    std::vector<bool> used(211, false);
    while (record.tokens.size() < len) {
      size_t id = (i * 13 + record.tokens.size() * 29 + 7) % 211;
      while (used[id]) id = (id + 1) % 211;
      used[id] = true;
      record.tokens.push_back(id);
    }
    std::sort(record.tokens.begin(), record.tokens.end());
    records.push_back(std::move(record));
  }

  PPJoinStream stream(spec);
  std::vector<SimilarPair> pairs;
  for (const auto& record : records) stream.ProbeAndInsert(record, &pairs);
  SortAndDedupePairs(&pairs);
  EXPECT_EQ(pairs, NaiveSelfJoin(records, spec));

  // Exact accounting: after the last probe (length L), exactly the
  // records shorter than LengthLowerBound(L) are evicted, and
  // resident_tokens() is the summed length of the survivors.
  size_t last_len = records.back().tokens.size();
  size_t lower = spec.LengthLowerBound(last_len);
  uint64_t expected_resident = 0;
  uint64_t expected_evicted = 0;
  for (const auto& record : records) {
    if (record.tokens.size() >= lower) {
      expected_resident += record.tokens.size();
    } else {
      ++expected_evicted;
    }
  }
  EXPECT_EQ(stream.resident_tokens(), expected_resident);
  EXPECT_EQ(stream.stats().evicted_records, expected_evicted);
  EXPECT_GT(expected_evicted, 180u);  // the bulk of the index died
  EXPECT_LE(stream.stats().peak_resident_tokens,
            stream.stats().arena_bytes / sizeof(text::TokenId));
}

/// Every PPJoinStats field, for exact comparison.
std::vector<uint64_t> StatsFields(const PPJoinStats& s) {
  return {s.probes,          s.candidates,        s.positional_pruned,
          s.suffix_pruned,   s.bitmap_pruned,     s.verified,
          s.results,         s.evicted_records,   s.hash_lookups_avoided,
          s.arena_bytes,     s.peak_resident_tokens};
}

/// One randomized prefix-token group, length-sorted. Universes and lengths
/// vary per group, so the dense posting index grows and later groups touch
/// only some of its lists; with `unknown`, about a third of the records
/// also carry out-of-dictionary ids (>= text::kUnknownTokenBase).
std::vector<TokenSetRecord> RandomGroup(uint64_t seed, bool unknown) {
  fj::Rng rng(seed);
  const size_t universe = 20 + rng.NextBelow(2000);
  const size_t n = 1 + rng.NextBelow(60);
  auto records = RandomRecords(n, seed, universe, 2 + rng.NextBelow(30));
  if (unknown) {
    for (auto& record : records) {
      if (!rng.NextBool(0.3)) continue;
      record.tokens.push_back(text::kUnknownTokenBase + rng.NextBelow(40));
      std::sort(record.tokens.begin(), record.tokens.end());
      record.tokens.erase(
          std::unique(record.tokens.begin(), record.tokens.end()),
          record.tokens.end());
    }
  }
  SortByLength(&records);
  return records;
}

/// The Section 4 R-S schedule on one stream: before probing an S record
/// of length l, insert every R record of length <= LengthUpperBound(l).
void RunRSGroup(const std::vector<TokenSetRecord>& r,
                const std::vector<TokenSetRecord>& s,
                const SimilaritySpec& spec, PPJoinStream* stream,
                std::vector<SimilarPair>* out) {
  size_t r_pos = 0;
  for (const auto& probe : s) {
    const size_t upper = spec.LengthUpperBound(probe.tokens.size());
    while (r_pos < r.size() && r[r_pos].tokens.size() <= upper) {
      stream->InsertRS(r[r_pos++]);
    }
    stream->Probe(probe, out);
  }
}

// A PK reduce task owns one stream and calls Reset() before each group.
// The reused stream must answer every group exactly as a fresh stream
// does: same pairs in the same order, same stats. Reset() keeps the
// capacity of the posting lists, the record store and the candidate
// slots, but releases the token arena, so arena_bytes (the arena's peak
// capacity) still reports the group's own peak — the value a fresh
// stream reports — and never a previous group's larger arena.
TEST(PPJoinStreamTest, ResetMatchesFreshStreamOnSelfJoinGroups) {
  SimilaritySpec spec(SimilarityFunction::kJaccard, 0.7);
  PPJoinStream reused(spec);
  uint64_t evicted = 0;
  for (uint64_t g = 0; g < 60; ++g) {
    const auto records = RandomGroup(100 + g, /*unknown=*/g % 3 == 0);
    reused.Reset();
    PPJoinStream fresh(spec);
    std::vector<SimilarPair> got;
    std::vector<SimilarPair> want;
    for (const auto& record : records) {
      reused.ProbeAndInsert(record, &got);
      fresh.ProbeAndInsert(record, &want);
    }
    EXPECT_EQ(got, want) << "group " << g;
    EXPECT_EQ(StatsFields(reused.stats()), StatsFields(fresh.stats()))
        << "group " << g;
    EXPECT_EQ(reused.stats().arena_bytes, fresh.stats().arena_bytes);
    EXPECT_EQ(reused.resident_tokens(), fresh.resident_tokens());
    EXPECT_EQ(reused.indexed_records(), fresh.indexed_records());
    SortAndDedupePairs(&got);
    EXPECT_EQ(got, NaiveSelfJoin(records, spec)) << "group " << g;
    evicted += reused.stats().evicted_records;
  }
  EXPECT_GT(evicted, 0u);
}

TEST(PPJoinStreamTest, ResetMatchesFreshStreamOnRSGroupsWithUnknownTokens) {
  SimilaritySpec spec(SimilarityFunction::kJaccard, 0.6);
  PPJoinStream reused(spec);
  fj::Rng rng(31);
  uint64_t evicted = 0;
  uint64_t results = 0;
  for (uint64_t g = 0; g < 60; ++g) {
    const auto r = RandomGroup(500 + g, /*unknown=*/true);
    auto s = RandomGroup(900 + g, /*unknown=*/true);
    // Near-copies of R records (unknown ids included) give the groups
    // results.
    for (size_t i = 0; i < s.size(); i += 3) {
      s[i].tokens = r[rng.NextBelow(r.size())].tokens;
    }
    SortByLength(&s);
    reused.Reset();
    PPJoinStream fresh(spec);
    std::vector<SimilarPair> got;
    std::vector<SimilarPair> want;
    RunRSGroup(r, s, spec, &reused, &got);
    RunRSGroup(r, s, spec, &fresh, &want);
    EXPECT_EQ(got, want) << "group " << g;
    EXPECT_EQ(StatsFields(reused.stats()), StatsFields(fresh.stats()))
        << "group " << g;
    SortAndDedupePairs(&got);
    EXPECT_EQ(got, NaiveRSJoin(r, s, spec)) << "group " << g;
    evicted += reused.stats().evicted_records;
    results += reused.stats().results;
  }
  EXPECT_GT(evicted, 0u);
  EXPECT_GT(results, 0u);
}

TEST(PPJoinStreamTest, StatsCountFilterActivity) {
  SimilaritySpec spec(SimilarityFunction::kJaccard, 0.8);
  auto records = RandomRecords(300, 17);
  PPJoinStats plus_stats;
  auto with_plus = PPJoinSelfJoin(records, spec, PPJoinOptions{}, &plus_stats);

  PPJoinOptions no_suffix;
  no_suffix.use_suffix_filter = false;
  PPJoinStats ppjoin_stats;
  auto without = PPJoinSelfJoin(records, spec, no_suffix, &ppjoin_stats);

  EXPECT_EQ(with_plus, without);
  EXPECT_EQ(plus_stats.probes, records.size());
  EXPECT_GT(plus_stats.candidates, 0u);
  // The suffix filter removes candidates before verification.
  EXPECT_EQ(ppjoin_stats.suffix_pruned, 0u);
  EXPECT_LE(plus_stats.verified, ppjoin_stats.verified);

  PPJoinStats allpairs_stats;
  auto allpairs = AllPairsSelfJoin(records, spec, &allpairs_stats);
  EXPECT_EQ(allpairs, with_plus);
  // All-Pairs verifies at least as many candidates as PPJoin.
  EXPECT_GE(allpairs_stats.verified, ppjoin_stats.verified);
  EXPECT_EQ(allpairs_stats.positional_pruned, 0u);
}

TEST(PPJoinStreamTest, SelfJoinOfIdenticalRecordsFindsAllPairs) {
  SimilaritySpec spec(SimilarityFunction::kJaccard, 0.9);
  std::vector<TokenSetRecord> records;
  for (uint64_t i = 0; i < 10; ++i) {
    records.push_back(TokenSetRecord{i, {1, 2, 3, 4, 5}});
  }
  auto got = PPJoinSelfJoin(records, spec);
  EXPECT_EQ(got.size(), 45u);  // C(10,2)
  for (const auto& pair : got) EXPECT_DOUBLE_EQ(pair.similarity, 1.0);
}

TEST(TokenSetTest, SortByLengthIsDeterministic) {
  std::vector<TokenSetRecord> records{
      {3, {1, 2}}, {1, {5, 6}}, {2, {1, 2, 3}}, {4, {9}}};
  SortByLength(&records);
  EXPECT_EQ(records[0].rid, 4u);
  EXPECT_EQ(records[1].rid, 1u);  // ties by rid
  EXPECT_EQ(records[2].rid, 3u);
  EXPECT_EQ(records[3].rid, 2u);
}

TEST(TokenSetTest, MakeSelfJoinPairCanonicalizes) {
  auto pair = MakeSelfJoinPair(9, 4, 0.5);
  EXPECT_EQ(pair.rid1, 4u);
  EXPECT_EQ(pair.rid2, 9u);
}

}  // namespace
}  // namespace fj::ppjoin
