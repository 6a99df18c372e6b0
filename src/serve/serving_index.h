// ServingIndex: a long-lived, incrementally-maintained PPJoin posting
// index — the online complement of the batch pipeline.
//
// The batch kernel (ppjoin/ppjoin.h) exploits length-ordered arrival:
// records stream in by ascending token count, which makes the shorter
// self-join prefix and length-filter eviction sound. A serving index gets
// no such ordering — inserts, deletes, and probes interleave arbitrarily —
// so this class indexes every record's full *probe prefix* at a configured
// threshold floor (the R-S "index side" discipline of Section 4): for any
// pair with sim >= tau >= tau_floor, the probe's prefix at tau must share
// a token with the indexed record's prefix at tau_floor (the indexed
// prefix only grows as the threshold drops, so indexing at the floor
// covers every servable threshold).
//
// Mutability model:
//   * Insert appends tokens to a contiguous arena and posting entries to
//     per-token lists; each successful write bumps the index write epoch
//     (the result-cache invalidation clock, see serve/query_service.h).
//   * Remove is an epoch-stamped tombstone: the slot records the epoch
//     that killed it, probes skip dead slots, and postings/arena stay
//     until compaction.
//   * Compaction triggers when the tombstone fraction reaches
//     compact_tombstone_fraction: live records are rewritten into a fresh
//     arena and posting index, dead postings disappear, and
//     probe answers are provably unchanged (compaction does NOT bump the
//     write epoch, so cached results stay valid across it).
//
// Probes are exact PPJoin probes: prefix filter at the query threshold,
// length filter, positional filter at a candidate's first match, the
// 128-bit hashed-bitmap pre-verification bound, then an early-terminating
// merge over the full token arrays. ProbeTopK answers "the k most similar
// records" exactly down to the floor, by iterative threshold deepening.
//
// Thread-compatibility: like the batch kernel, this class is single
// writer / single prober (probes reuse epoch-stamped candidate scratch).
// serve/query_service.h serializes access behind a bounded request queue.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "ppjoin/token_set.h"
#include "similarity/filters.h"
#include "similarity/similarity.h"
#include "text/token_ordering.h"
#include "text/tokenizer.h"

namespace fj::serve {

using ppjoin::TokenSetRecord;

/// One probe answer: an indexed record and its exact similarity to the
/// probe. ProbeThreshold returns these ascending by rid; ProbeTopK by
/// (similarity descending, rid ascending).
struct ProbeResult {
  uint64_t rid = 0;
  double similarity = 0;

  friend bool operator==(const ProbeResult& a, const ProbeResult& b) {
    return a.rid == b.rid && a.similarity == b.similarity;
  }
};

struct ServingIndexOptions {
  sim::SimilarityFunction function = sim::SimilarityFunction::kJaccard;
  /// Lowest threshold the index can serve exactly. Index prefix depth is
  /// derived from it: lower floor = longer indexed prefixes = larger
  /// index and slower probes. Probes below the floor are refused with
  /// FailedPrecondition.
  double tau_floor = 0.5;
  /// Compact when dead slots reach this fraction of all slots (dead +
  /// live). Values outside (0, 1] disable threshold-triggered compaction
  /// (CompactNow is always available).
  double compact_tombstone_fraction = 0.25;
};

/// Monotonic counters describing the life of one ServingIndex.
struct ServingIndexStats {
  uint64_t inserts = 0;
  uint64_t removes = 0;
  uint64_t probes = 0;
  uint64_t candidates = 0;        ///< distinct (probe, indexed) pairs seen
  uint64_t positional_pruned = 0;
  uint64_t bitmap_pruned = 0;
  uint64_t verified = 0;          ///< pairs reaching the merge
  uint64_t results = 0;
  uint64_t compactions = 0;
  uint64_t tombstones_purged = 0;  ///< dead slots removed by compaction
  uint64_t topk_deepenings = 0;   ///< extra ladder rungs ProbeTopK probed
};

class ServingIndex {
 public:
  explicit ServingIndex(ServingIndexOptions options = {});

  // --- Writes (each successful one bumps the write epoch) ---

  /// Indexes `record`. Tokens must be strictly ascending (a canonical
  /// set, e.g. from TokenOrdering::ToSortedIds) and non-empty;
  /// InvalidArgument otherwise. AlreadyExists if a live record with the
  /// same rid is indexed.
  Status Insert(const TokenSetRecord& record);

  /// Tombstones the live record with `rid` (NotFound if absent). May
  /// trigger compaction.
  Status Remove(uint64_t rid);

  // --- Probes (exact) ---

  /// All live indexed records y with sim(record, y) >= tau, excluding y
  /// with y.rid == record.rid (a record never matches itself when probed
  /// back). Results ascending by rid; set-identical to the offline batch
  /// join's pairs for `record` at `tau`. FailedPrecondition when tau is
  /// below the index floor; InvalidArgument on a malformed record.
  Status ProbeThreshold(const TokenSetRecord& record, double tau,
                        std::vector<ProbeResult>* out);

  /// The k live records most similar to `record` among those with
  /// similarity >= tau_floor, ordered by (similarity desc, rid asc); ties
  /// broken by rid so answers are deterministic. Fewer than k results
  /// means fewer than k records clear the floor.
  Status ProbeTopK(const TokenSetRecord& record, size_t k,
                   std::vector<ProbeResult>* out);

  // --- Maintenance / introspection ---

  /// Rewrites the index without its tombstones. Answers are unchanged
  /// (and the write epoch does not move — caches survive compaction).
  void CompactNow();

  /// Live records in slot order (the order a from-scratch rebuild would
  /// insert them). Powers snapshots and rebuild-equivalence tests.
  void ExportLive(std::vector<TokenSetRecord>* out) const;

  /// Advances on every successful Insert/Remove. The result-cache
  /// validity clock: a cached probe answer is valid iff it was computed
  /// at the current epoch.
  uint64_t write_epoch() const { return write_epoch_; }

  size_t live_records() const { return rid_to_slot_.size(); }
  size_t tombstones() const { return dead_slots_; }
  /// Tokens of live records (arena bytes also cover dead tokens until
  /// compaction reclaims them).
  uint64_t live_tokens() const { return live_tokens_; }
  uint64_t arena_tokens() const { return arena_.size(); }

  const ServingIndexStats& stats() const { return stats_; }
  const ServingIndexOptions& options() const { return options_; }

 private:
  struct Posting {
    uint32_t slot = 0;
    uint32_t position = 0;  ///< token position within the record
    uint32_t length = 0;    ///< record length (length filter reads postings)
  };

  struct PostingList {
    std::vector<Posting> entries;
  };

  struct Slot {
    uint64_t rid = 0;
    sim::BitmapSignature signature;
    size_t arena_begin = 0;
    uint32_t length = 0;
    /// 0 = live; otherwise the write epoch whose Remove killed it.
    uint64_t tombstone_epoch = 0;

    bool live() const { return tombstone_epoch == 0; }
  };

  /// Per-slot probe dedupe state, versioned by probe_epoch_ (never
  /// cleared, exactly like the batch kernel's candidate accumulator).
  struct CandidateSlot {
    uint64_t epoch = 0;
  };

  sim::TokenIdSpan TokensOf(const Slot& slot) const {
    return sim::TokenIdSpan(arena_.data() + slot.arena_begin, slot.length);
  }

  PostingList* FindPostingList(sim::TokenId id);
  PostingList& PostingListFor(sim::TokenId id);

  /// Appends `record` as a new live slot (store + arena + postings). The
  /// caller has validated it.
  void AppendSlot(const TokenSetRecord& record);

  /// Verify loop over candidate_order_ under `spec`; appends results and
  /// clears the scratch.
  void VerifyCandidates(const TokenSetRecord& record,
                        const sim::SimilaritySpec& spec,
                        std::vector<ProbeResult>* out);

  /// ProbeThreshold without the floor check (ProbeTopK's ladder rungs are
  /// always >= the floor by construction).
  void ProbeUnchecked(const TokenSetRecord& record,
                      const sim::SimilaritySpec& spec,
                      std::vector<ProbeResult>* out);

  Status ValidateRecord(const TokenSetRecord& record) const;

  void MaybeCompact();

  ServingIndexOptions options_;
  sim::SimilaritySpec floor_spec_;  ///< (function, tau_floor): index depth

  std::vector<Slot> slots_;
  std::vector<sim::TokenId> arena_;  ///< all indexed tokens, contiguous
  std::vector<PostingList> dense_index_;  ///< slot = stage-1 token rank
  // Serving tier, not the batch hot loop; probe results are sorted before
  // they leave, so map iteration order never escapes.
  std::unordered_map<sim::TokenId, PostingList> unknown_index_;
  std::unordered_map<uint64_t, uint32_t> rid_to_slot_;  ///< live rids only

  std::vector<CandidateSlot> candidate_slots_;  ///< one per slot
  std::vector<uint32_t> candidate_order_;       ///< touched list
  uint64_t probe_epoch_ = 0;

  uint64_t write_epoch_ = 0;
  size_t dead_slots_ = 0;
  uint64_t live_tokens_ = 0;
  ServingIndexStats stats_;
};

/// A serving index plus the token ordering that maps raw text onto its id
/// space (the driver needs both: the ordering tokenizes incoming INSERT /
/// PROBE text exactly the way the seeded corpus was tokenized).
struct SeededIndex {
  std::unique_ptr<ServingIndex> index;
  text::TokenOrdering ordering;
};

/// Seeds a ServingIndex from an offline stage-1 run: `ordering_lines` is
/// the stage-1 output ("token<TAB>count" per line, rank order — pass {}
/// to derive the ordering from the corpus itself), `record_lines` are
/// data::Record lines whose join attributes become the indexed sets.
Result<SeededIndex> BuildFromJoinOutput(
    const std::vector<std::string>& ordering_lines,
    const std::vector<std::string>& record_lines,
    const text::Tokenizer& tokenizer, const ServingIndexOptions& options);

/// Snapshot of a seeded index as self-describing binary blocks (varint
/// framed; block 0 is a header carrying the options). Load rebuilds an
/// index that answers identically.
std::vector<std::string> SaveSnapshot(const ServingIndex& index,
                                      const text::TokenOrdering& ordering);
Result<SeededIndex> LoadSnapshot(const std::vector<std::string>& blocks);

}  // namespace fj::serve
