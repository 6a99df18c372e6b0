// MinHash-LSH approximate join: signature agreement estimates Jaccard,
// output is a subset of the exact result with perfect precision, and
// recall tracks the 1-(1-s^r)^b curve.
#include "ppjoin/minhash_lsh.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "ppjoin/naive.h"

namespace fj::ppjoin {
namespace {

using sim::SimilarityFunction;
using sim::SimilaritySpec;

TokenSetRecord MakeRecord(uint64_t rid, std::initializer_list<TokenId> ids) {
  TokenSetRecord record{rid, ids};
  std::sort(record.tokens.begin(), record.tokens.end());
  return record;
}

TEST(MinHashTest, IdenticalSetsHaveIdenticalSignatures) {
  auto a = MakeRecord(1, {3, 7, 9});
  auto b = MakeRecord(2, {3, 7, 9});
  EXPECT_EQ(MinHashSignature(a, 64, 1), MinHashSignature(b, 64, 1));
}

TEST(MinHashTest, SignatureAgreementEstimatesJaccard) {
  // Two sets with Jaccard 0.5: expect ~half the slots to agree.
  TokenSetRecord a{1, {}}, b{2, {}};
  for (TokenId t = 0; t < 200; ++t) {
    if (t < 100) a.tokens.push_back(t);       // 0..99
    if (t >= 50 && t < 150) b.tokens.push_back(t);  // 50..149
  }
  // jaccard = 50 / 150 = 1/3.
  const size_t hashes = 3000;
  auto sa = MinHashSignature(a, hashes, 7);
  auto sb = MinHashSignature(b, hashes, 7);
  size_t agree = 0;
  for (size_t k = 0; k < hashes; ++k) agree += sa[k] == sb[k];
  EXPECT_NEAR(static_cast<double>(agree) / hashes, 1.0 / 3.0, 0.04);
}

TEST(MinHashTest, DifferentSeedsGiveDifferentSignatures) {
  auto a = MakeRecord(1, {3, 7, 9, 11, 20});
  EXPECT_NE(MinHashSignature(a, 16, 1), MinHashSignature(a, 16, 2));
}

TEST(LshProbabilityTest, SCurveShape) {
  MinHashLshOptions options;
  options.num_bands = 16;
  options.rows_per_band = 4;
  EXPECT_NEAR(LshCandidateProbability(1.0, options), 1.0, 1e-12);
  EXPECT_LT(LshCandidateProbability(0.2, options), 0.05);
  EXPECT_GT(LshCandidateProbability(0.9, options), 0.99);
  // Monotone in similarity.
  double prev = 0;
  for (double s = 0.0; s <= 1.0; s += 0.05) {
    double p = LshCandidateProbability(s, options);
    EXPECT_GE(p, prev - 1e-12);
    prev = p;
  }
}

std::vector<TokenSetRecord> CorrelatedRecords(size_t n, uint64_t seed) {
  fj::Rng rng(seed);
  std::vector<TokenSetRecord> records;
  for (size_t i = 0; i < n; ++i) {
    TokenSetRecord record;
    record.rid = i + 1;
    if (!records.empty() && rng.NextBool(0.35)) {
      record.tokens = records[rng.NextBelow(records.size())].tokens;
      if (!record.tokens.empty() && rng.NextBool(0.5)) {
        record.tokens.erase(record.tokens.begin() +
                            static_cast<ptrdiff_t>(
                                rng.NextBelow(record.tokens.size())));
      }
    } else {
      size_t len = 6 + rng.NextBelow(8);
      while (record.tokens.size() < len) {
        record.tokens.push_back(rng.NextBelow(300));
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

TEST(LshJoinTest, PerfectPrecisionAndHighRecall) {
  auto records = CorrelatedRecords(400, 11);
  SimilaritySpec spec(SimilarityFunction::kJaccard, 0.8);
  auto exact = NaiveSelfJoin(records, spec);
  ASSERT_GT(exact.size(), 20u);

  MinHashLshOptions options;
  options.num_bands = 24;
  options.rows_per_band = 4;  // P(candidate | s=0.8) ~ 1-(1-0.41)^24 ~ 1.0
  MinHashLshStats stats;
  auto approx = MinHashLshSelfJoin(records, spec, options, &stats);

  // Precision 1: every returned pair is in the exact result.
  std::set<SimilarPair> exact_set(exact.begin(), exact.end());
  for (const auto& pair : approx) {
    EXPECT_TRUE(exact_set.count(pair))
        << "false positive " << pair.rid1 << "," << pair.rid2;
  }
  // Recall near 1 at these parameters.
  double recall = static_cast<double>(approx.size()) / exact.size();
  EXPECT_GT(recall, 0.95);
  EXPECT_GT(stats.candidate_pairs, 0u);
  EXPECT_EQ(stats.results, approx.size());
}

TEST(LshJoinTest, WeakParametersLoseRecall) {
  auto records = CorrelatedRecords(400, 12);
  SimilaritySpec spec(SimilarityFunction::kJaccard, 0.8);
  auto exact = NaiveSelfJoin(records, spec);
  ASSERT_GT(exact.size(), 20u);

  MinHashLshOptions strong;
  strong.num_bands = 24;
  strong.rows_per_band = 4;
  MinHashLshOptions weak;
  weak.num_bands = 2;
  weak.rows_per_band = 12;  // P(candidate | s=0.8) ~ 0.13
  auto strong_result = MinHashLshSelfJoin(records, spec, strong);
  auto weak_result = MinHashLshSelfJoin(records, spec, weak);
  EXPECT_LT(weak_result.size(), strong_result.size());
}

TEST(LshJoinTest, EmptyRecordsIgnored) {
  std::vector<TokenSetRecord> records{
      {1, {}}, {2, {5, 6, 7}}, {3, {5, 6, 7}}, {4, {}}};
  SimilaritySpec spec(SimilarityFunction::kJaccard, 0.8);
  auto pairs = MinHashLshSelfJoin(records, spec);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].rid1, 2u);
  EXPECT_EQ(pairs[0].rid2, 3u);
}

TEST(LshJoinTest, DeterministicForFixedSeed) {
  auto records = CorrelatedRecords(200, 13);
  SimilaritySpec spec(SimilarityFunction::kJaccard, 0.8);
  auto a = MinHashLshSelfJoin(records, spec);
  auto b = MinHashLshSelfJoin(records, spec);
  EXPECT_EQ(a, b);
}

TEST(BandKeysTest, DeterministicAcrossRunsGoldenValues) {
  // Band keys are pure functions of (signature, options) with no
  // per-process state (no ASLR-dependent pointers, no global counters),
  // so a rerun of bench_lsh reproduces BENCH_lsh.json's candidate sets.
  // If this test breaks, the band hashing has silently changed.
  auto record = MakeRecord(1, {3, 7, 9, 11, 20});
  MinHashLshOptions options;
  options.num_bands = 4;
  options.rows_per_band = 2;
  options.seed = 0x5eed;
  auto signature =
      MinHashSignature(record, options.num_bands * options.rows_per_band,
                       options.seed);
  auto keys = BandKeys(signature, options);
  ASSERT_EQ(keys.size(), 4u);
  EXPECT_EQ(keys[0], 0x2d807f514807d158ULL);
  EXPECT_EQ(keys[1], 0xfb3b3bbc9b946424ULL);
  EXPECT_EQ(keys[2], 0x814c8174dcc125c8ULL);
  EXPECT_EQ(keys[3], 0x63db9dbc38af88edULL);
}

TEST(BandKeysTest, SameSetSameKeysDifferentSetUsuallyNot) {
  MinHashLshOptions options;
  options.num_bands = 8;
  options.rows_per_band = 4;
  auto a = MakeRecord(1, {2, 4, 6, 8, 10});
  auto b = MakeRecord(9, {2, 4, 6, 8, 10});
  const size_t hashes = options.num_bands * options.rows_per_band;
  EXPECT_EQ(BandKeys(MinHashSignature(a, hashes, options.seed), options),
            BandKeys(MinHashSignature(b, hashes, options.seed), options));
  auto c = MakeRecord(2, {100, 200, 300, 400, 500});
  auto keys_a = BandKeys(MinHashSignature(a, hashes, options.seed), options);
  auto keys_c = BandKeys(MinHashSignature(c, hashes, options.seed), options);
  size_t agree = 0;
  for (size_t band = 0; band < options.num_bands; ++band) {
    agree += keys_a[band] == keys_c[band];
  }
  EXPECT_EQ(agree, 0u) << "disjoint sets should share no band bucket";
}

TEST(LshJoinTest, RecallLowerBoundProperty) {
  // At (bands=24, rows=4, tau=0.8) theory gives per-pair candidate
  // probability >= 1-(1-0.8^4)^24 ~ 0.9999997 for pairs AT the
  // threshold — and higher above it. Over repeated trials with different
  // data seeds, measured recall must stay above a conservative 0.95
  // lower bound (the slack absorbs the variance of small exact sets).
  MinHashLshOptions options;
  options.num_bands = 24;
  options.rows_per_band = 4;
  SimilaritySpec spec(SimilarityFunction::kJaccard, 0.8);
  double p_at_tau = LshCandidateProbability(0.8, options);
  ASSERT_GT(p_at_tau, 0.999);
  size_t exact_total = 0, found_total = 0;
  for (uint64_t seed = 21; seed < 26; ++seed) {
    auto records = CorrelatedRecords(300, seed);
    auto exact = NaiveSelfJoin(records, spec);
    auto approx = MinHashLshSelfJoin(records, spec, options);
    std::set<SimilarPair> exact_set(exact.begin(), exact.end());
    for (const auto& pair : approx) {
      ASSERT_TRUE(exact_set.count(pair));  // precision stays perfect
    }
    exact_total += exact.size();
    found_total += approx.size();
  }
  ASSERT_GT(exact_total, 100u);
  EXPECT_GT(static_cast<double>(found_total),
            0.95 * static_cast<double>(exact_total));
}

TEST(LshJoinTest, EmptyAndSingletonEdgeCases) {
  SimilaritySpec spec(SimilarityFunction::kJaccard, 0.8);
  // Empty input collection.
  EXPECT_TRUE(MinHashLshSelfJoin({}, spec).empty());
  // All-empty token sets produce nothing (and no bucket explosions).
  EXPECT_TRUE(MinHashLshSelfJoin({{1, {}}, {2, {}}}, spec).empty());
  // Identical singletons always collide in every band and join at 1.0.
  std::vector<TokenSetRecord> singles{{1, {42}}, {2, {42}}, {3, {7}}};
  auto pairs = MinHashLshSelfJoin(singles, spec);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].rid1, 1u);
  EXPECT_EQ(pairs[0].rid2, 2u);
  EXPECT_DOUBLE_EQ(pairs[0].similarity, 1.0);
  // A single record can never pair with itself.
  EXPECT_TRUE(MinHashLshSelfJoin({{1, {1, 2, 3}}}, spec).empty());
  // MinHash of a singleton: every slot is the hash of its only token.
  auto signature = MinHashSignature({1, {42}}, 8, 3);
  auto again = MinHashSignature({2, {42}}, 8, 3);
  EXPECT_EQ(signature, again);
}

}  // namespace
}  // namespace fj::ppjoin
