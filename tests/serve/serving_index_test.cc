// ServingIndex correctness invariants:
//   * ProbeThreshold is set-identical to the offline batch join for the
//     same (record, threshold);
//   * any interleaving of Insert / Remove / compaction answers exactly
//     like an index rebuilt from scratch over the surviving records —
//     swept over operation orders and compaction trigger points;
//   * ProbeTopK is the sorted-truncated exact answer at the floor;
//   * snapshots round-trip into an index that answers identically.
#include "serve/serving_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "common/varint.h"
#include "ppjoin/naive.h"
#include "ppjoin/ppjoin.h"

namespace fj::serve {
namespace {

using ppjoin::NaiveSelfJoin;
using ppjoin::SimilarPair;
using sim::SimilarityFunction;
using sim::SimilaritySpec;

TokenSetRecord MakeRecord(uint64_t rid,
                          std::initializer_list<sim::TokenId> ids) {
  TokenSetRecord record{rid, ids};
  std::sort(record.tokens.begin(), record.tokens.end());
  record.tokens.erase(
      std::unique(record.tokens.begin(), record.tokens.end()),
      record.tokens.end());
  return record;
}

std::vector<TokenSetRecord> RandomRecords(size_t n, uint64_t seed,
                                          size_t universe = 120) {
  Rng rng(seed);
  std::vector<TokenSetRecord> records;
  for (size_t i = 0; i < n; ++i) {
    TokenSetRecord record;
    record.rid = 1000 + i;
    if (!records.empty() && rng.NextBool(0.4)) {
      // Mutate an earlier record so high-similarity pairs exist.
      record.tokens = records[rng.NextBelow(records.size())].tokens;
      if (record.tokens.size() > 2 && rng.NextBool(0.5)) {
        record.tokens.erase(record.tokens.begin() +
                            static_cast<ptrdiff_t>(
                                rng.NextBelow(record.tokens.size())));
      }
      if (rng.NextBool(0.5)) record.tokens.push_back(universe + i);
    } else {
      size_t len = 4 + rng.NextBelow(10);
      while (record.tokens.size() < len) {
        record.tokens.push_back(rng.NextBelow(universe));
        std::sort(record.tokens.begin(), record.tokens.end());
        record.tokens.erase(
            std::unique(record.tokens.begin(), record.tokens.end()),
            record.tokens.end());
      }
    }
    std::sort(record.tokens.begin(), record.tokens.end());
    record.tokens.erase(
        std::unique(record.tokens.begin(), record.tokens.end()),
        record.tokens.end());
    records.push_back(std::move(record));
  }
  return records;
}

/// The batch join's answer for `probe` at `tau`, as ProbeThreshold results
/// (rid ascending), derived from the naive all-pairs join.
std::vector<ProbeResult> BatchAnswer(const std::vector<TokenSetRecord>& all,
                                     const TokenSetRecord& probe,
                                     const SimilaritySpec& spec) {
  std::vector<TokenSetRecord> corpus = all;
  corpus.push_back(probe);
  std::vector<ProbeResult> expected;
  for (const SimilarPair& pair : NaiveSelfJoin(corpus, spec)) {
    if (pair.rid1 == probe.rid && pair.rid2 != probe.rid) {
      expected.push_back({pair.rid2, pair.similarity});
    } else if (pair.rid2 == probe.rid && pair.rid1 != probe.rid) {
      expected.push_back({pair.rid1, pair.similarity});
    }
  }
  std::sort(expected.begin(), expected.end(),
            [](const ProbeResult& a, const ProbeResult& b) {
              return a.rid < b.rid;
            });
  return expected;
}

TEST(ServingIndexTest, ProbeThresholdMatchesOfflineBatchJoin) {
  auto records = RandomRecords(120, 17);
  for (double tau : {0.5, 0.6, 0.8, 0.9}) {
    ServingIndexOptions options;
    options.tau_floor = 0.5;
    ServingIndex index(options);
    for (const auto& record : records) {
      ASSERT_TRUE(index.Insert(record).ok());
    }
    SimilaritySpec spec(SimilarityFunction::kJaccard, tau);
    for (const auto& probe : records) {
      // Probing with an indexed rid must exclude the record itself.
      std::vector<TokenSetRecord> others;
      for (const auto& r : records) {
        if (r.rid != probe.rid) others.push_back(r);
      }
      std::vector<ProbeResult> got;
      ASSERT_TRUE(index.ProbeThreshold(probe, tau, &got).ok());
      EXPECT_EQ(got, BatchAnswer(others, probe, spec))
          << "rid=" << probe.rid << " tau=" << tau;
    }
  }
}

TEST(ServingIndexTest, CosineAndDiceProbesMatchBatch) {
  auto records = RandomRecords(60, 23);
  for (auto function :
       {SimilarityFunction::kCosine, SimilarityFunction::kDice}) {
    ServingIndexOptions options;
    options.function = function;
    options.tau_floor = 0.6;
    ServingIndex index(options);
    for (const auto& record : records) {
      ASSERT_TRUE(index.Insert(record).ok());
    }
    SimilaritySpec spec(function, 0.7);
    for (const auto& probe : records) {
      std::vector<TokenSetRecord> others;
      for (const auto& r : records) {
        if (r.rid != probe.rid) others.push_back(r);
      }
      std::vector<ProbeResult> got;
      ASSERT_TRUE(index.ProbeThreshold(probe, 0.7, &got).ok());
      EXPECT_EQ(got, BatchAnswer(others, probe, spec)) << probe.rid;
    }
  }
}

/// Rebuilds an index from the live set and checks that `index` answers
/// identically for every probe in `probes` at the floor.
void ExpectEquivalentToRebuild(ServingIndex* index,
                               const std::vector<TokenSetRecord>& probes,
                               double tau) {
  std::vector<TokenSetRecord> live;
  index->ExportLive(&live);
  ServingIndex fresh(index->options());
  for (const auto& record : live) ASSERT_TRUE(fresh.Insert(record).ok());
  for (const auto& probe : probes) {
    std::vector<ProbeResult> got, want;
    ASSERT_TRUE(index->ProbeThreshold(probe, tau, &got).ok());
    ASSERT_TRUE(fresh.ProbeThreshold(probe, tau, &want).ok());
    EXPECT_EQ(got, want) << "probe rid=" << probe.rid;
  }
}

TEST(ServingIndexTest, StreamingMutationsEquivalentToRebuild) {
  // Sweep operation orders (seed) and compaction trigger points: never
  // (fraction out of range), eager (0.1), and lazy (0.9) — plus explicit
  // CompactNow calls mid-stream.
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (double fraction : {2.0, 0.1, 0.9}) {
      auto records = RandomRecords(80, 100 + seed);
      ServingIndexOptions options;
      options.tau_floor = 0.5;
      options.compact_tombstone_fraction = fraction;
      ServingIndex index(options);
      Rng rng(seed);
      std::vector<TokenSetRecord> inserted;
      size_t next = 0;
      for (int step = 0; step < 160; ++step) {
        if (next < records.size() && (inserted.empty() || rng.NextBool(0.6))) {
          ASSERT_TRUE(index.Insert(records[next]).ok());
          inserted.push_back(records[next]);
          ++next;
        } else if (!inserted.empty()) {
          size_t victim = rng.NextBelow(inserted.size());
          ASSERT_TRUE(index.Remove(inserted[victim].rid).ok());
          inserted.erase(inserted.begin() +
                         static_cast<ptrdiff_t>(victim));
        }
        if (step % 37 == 36) index.CompactNow();
        if (step % 40 == 39) {
          ExpectEquivalentToRebuild(&index, records, 0.5);
        }
      }
      ExpectEquivalentToRebuild(&index, records, 0.5);
      if (fraction == 0.1) {
        EXPECT_GT(index.stats().compactions, 0u);
        EXPECT_GT(index.stats().tombstones_purged, 0u);
      }
    }
  }
}

TEST(ServingIndexTest, CompactionPreservesEpochAndAnswers) {
  ServingIndexOptions options;
  options.compact_tombstone_fraction = 2.0;  // manual compaction only
  ServingIndex index(options);
  auto records = RandomRecords(40, 5);
  for (const auto& record : records) {
    ASSERT_TRUE(index.Insert(record).ok());
  }
  for (size_t i = 0; i < records.size(); i += 3) {
    ASSERT_TRUE(index.Remove(records[i].rid).ok());
  }
  const uint64_t epoch = index.write_epoch();
  std::vector<ProbeResult> before, after;
  ASSERT_TRUE(index.ProbeThreshold(records[1], 0.5, &before).ok());
  EXPECT_GT(index.tombstones(), 0u);
  index.CompactNow();
  EXPECT_EQ(index.tombstones(), 0u);
  EXPECT_EQ(index.write_epoch(), epoch)
      << "compaction must not invalidate caches";
  EXPECT_EQ(index.arena_tokens(), index.live_tokens());
  ASSERT_TRUE(index.ProbeThreshold(records[1], 0.5, &after).ok());
  EXPECT_EQ(before, after);
}

TEST(ServingIndexTest, ProbeBelowFloorIsRefused) {
  ServingIndexOptions options;
  options.tau_floor = 0.7;
  ServingIndex index(options);
  ASSERT_TRUE(index.Insert(MakeRecord(1, {1, 2, 3})).ok());
  std::vector<ProbeResult> out;
  Status status = index.ProbeThreshold(MakeRecord(9, {1, 2, 3}), 0.5, &out);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  // At the floor itself the probe is served.
  EXPECT_TRUE(index.ProbeThreshold(MakeRecord(9, {1, 2, 3}), 0.7, &out).ok());
}

TEST(ServingIndexTest, WriteValidation) {
  ServingIndex index;
  EXPECT_EQ(index.Insert({1, {}}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Insert({1, {5, 3}}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Insert({1, {3, 3, 5}}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(index.Insert(MakeRecord(1, {1, 2, 3})).ok());
  EXPECT_EQ(index.Insert(MakeRecord(1, {4, 5, 6})).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(index.Remove(99).code(), StatusCode::kNotFound);
  ASSERT_TRUE(index.Remove(1).ok());
  EXPECT_EQ(index.Remove(1).code(), StatusCode::kNotFound);
  // A removed rid can be inserted again.
  EXPECT_TRUE(index.Insert(MakeRecord(1, {4, 5, 6})).ok());
}

TEST(ServingIndexTest, TopKIsSortedTruncatedExactAnswer) {
  auto records = RandomRecords(100, 31);
  ServingIndexOptions options;
  options.tau_floor = 0.5;
  ServingIndex index(options);
  for (const auto& record : records) {
    ASSERT_TRUE(index.Insert(record).ok());
  }
  for (size_t k : {1u, 3u, 10u, 1000u}) {
    for (size_t p = 0; p < records.size(); p += 7) {
      const auto& probe = records[p];
      std::vector<ProbeResult> all, topk;
      ASSERT_TRUE(index.ProbeThreshold(probe, options.tau_floor, &all).ok());
      ASSERT_TRUE(index.ProbeTopK(probe, k, &topk).ok());
      std::stable_sort(all.begin(), all.end(),
                       [](const ProbeResult& a, const ProbeResult& b) {
                         if (a.similarity != b.similarity) {
                           return a.similarity > b.similarity;
                         }
                         return a.rid < b.rid;
                       });
      if (all.size() > k) all.resize(k);
      EXPECT_EQ(topk, all) << "rid=" << probe.rid << " k=" << k;
    }
  }
}

TEST(ServingIndexTest, TopKZeroIsEmpty) {
  ServingIndex index;
  ASSERT_TRUE(index.Insert(MakeRecord(1, {1, 2, 3})).ok());
  std::vector<ProbeResult> out{{7, 0.5}};
  ASSERT_TRUE(index.ProbeTopK(MakeRecord(9, {1, 2, 3}), 0, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(ServingIndexTest, SnapshotRoundTripAnswersIdentically) {
  auto records = RandomRecords(60, 67);
  ServingIndexOptions options;
  options.tau_floor = 0.55;
  options.function = SimilarityFunction::kJaccard;
  ServingIndex index(options);
  for (const auto& record : records) {
    ASSERT_TRUE(index.Insert(record).ok());
  }
  for (size_t i = 0; i < records.size(); i += 5) {
    ASSERT_TRUE(index.Remove(records[i].rid).ok());
  }
  text::TokenOrdering ordering = text::TokenOrdering::FromCounts(
      {{"alpha", 1}, {"beta", 2}, {"gamma", 3}});
  auto blocks = SaveSnapshot(index, ordering);
  auto loaded = LoadSnapshot(blocks);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->index->live_records(), index.live_records());
  EXPECT_EQ(loaded->ordering.size(), ordering.size());
  EXPECT_DOUBLE_EQ(loaded->index->options().tau_floor, 0.55);
  for (const auto& probe : records) {
    std::vector<ProbeResult> got, want;
    ASSERT_TRUE(index.ProbeThreshold(probe, 0.6, &got).ok());
    ASSERT_TRUE(loaded->index->ProbeThreshold(probe, 0.6, &want).ok());
    EXPECT_EQ(got, want) << probe.rid;
  }
}

TEST(ServingIndexTest, SnapshotRejectsCorruptBlocks) {
  ServingIndex index;
  ASSERT_TRUE(index.Insert(MakeRecord(1, {1, 2, 3})).ok());
  auto blocks = SaveSnapshot(index, text::TokenOrdering());
  {
    auto bad = blocks;
    bad[0][0] ^= 0x5a;  // clobber the magic
    EXPECT_FALSE(LoadSnapshot(bad).ok());
  }
  {
    auto bad = blocks;
    bad.pop_back();  // drop a record block
    EXPECT_FALSE(LoadSnapshot(bad).ok());
  }
  EXPECT_FALSE(LoadSnapshot({}).ok());
}

TEST(ServingIndexTest, SnapshotRefusesATokenCountBeyondItsBlock) {
  ServingIndex index;
  ASSERT_TRUE(index.Insert(MakeRecord(1, {1, 2, 3})).ok());
  const auto blocks = SaveSnapshot(index, text::TokenOrdering());
  ASSERT_EQ(blocks.size(), 3u);
  const std::string& record = blocks[2];
  size_t deltas = 0;
  uint64_t rid = 0, count = 0;
  ASSERT_TRUE(DecodeVarint(record, &deltas, &rid));
  ASSERT_TRUE(DecodeVarint(record, &deltas, &count));
  ASSERT_EQ(count, 3u);
  // Re-frame the record with a larger token count and the same deltas: a
  // count the block cannot hold is DataLoss, never an allocation.
  for (const uint64_t forged : {uint64_t{4}, uint64_t{1} << 62, UINT64_MAX}) {
    auto bad = blocks;
    bad[2].clear();
    AppendVarint(&bad[2], rid);
    AppendVarint(&bad[2], forged);
    bad[2].append(record, deltas);
    StatusCode code = StatusCode::kOk;
    EXPECT_NO_THROW(code = LoadSnapshot(bad).status().code()) << forged;
    EXPECT_EQ(code, StatusCode::kDataLoss) << forged;
  }
}

TEST(ServingIndexTest, SnapshotRefusesTheOlderHeaderLayout) {
  ServingIndex index;
  ASSERT_TRUE(index.Insert(MakeRecord(1, {1, 2, 3})).ok());
  auto blocks = SaveSnapshot(index, text::TokenOrdering());
  ASSERT_EQ(blocks[0].compare(0, 5, "FJSV2"), 0);
  blocks[0].replace(0, 5, "FJSV1");
  EXPECT_EQ(LoadSnapshot(blocks).status().code(), StatusCode::kDataLoss);
}

TEST(ServingIndexTest, BuildFromJoinOutputProbesLikeTheCorpus) {
  // Seed from data::Record lines with a derived ordering, then probe the
  // exact title text of a record: it must come back at similarity 1.
  std::vector<std::string> record_lines = {
      "1\tparallel set similarity joins\tvernica carey li\t",
      "2\tparallel set similarity joins\tvernica carey\t",
      "3\tefficient graph processing\tsmith jones\t",
  };
  text::WordTokenizer tokenizer;
  ServingIndexOptions options;
  options.tau_floor = 0.5;
  auto seeded = BuildFromJoinOutput({}, record_lines, tokenizer, options);
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  ASSERT_EQ(seeded->index->live_records(), 3u);
  TokenSetRecord probe;
  probe.rid = 999;
  probe.tokens = seeded->ordering.ToSortedIds(
      tokenizer.Tokenize("parallel set similarity joins vernica carey li"));
  std::vector<ProbeResult> out;
  ASSERT_TRUE(seeded->index->ProbeThreshold(probe, 0.5, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].rid, 1u);
  EXPECT_DOUBLE_EQ(out[0].similarity, 1.0);
  EXPECT_EQ(out[1].rid, 2u);
  EXPECT_NEAR(out[1].similarity, 6.0 / 7.0, 1e-12);
}

TEST(ServingIndexTest, ProbeStatsAccount) {
  ServingIndex index;
  auto records = RandomRecords(50, 71);
  for (const auto& record : records) {
    ASSERT_TRUE(index.Insert(record).ok());
  }
  std::vector<ProbeResult> out;
  for (const auto& probe : records) {
    ASSERT_TRUE(index.ProbeThreshold(probe, 0.8, &out).ok());
  }
  const auto& stats = index.stats();
  EXPECT_EQ(stats.inserts, records.size());
  EXPECT_EQ(stats.probes, records.size());
  EXPECT_GT(stats.candidates, 0u);
  EXPECT_GE(stats.candidates,
            stats.positional_pruned + stats.bitmap_pruned + stats.verified);
  EXPECT_GE(stats.verified, stats.results);
}

}  // namespace
}  // namespace fj::serve
