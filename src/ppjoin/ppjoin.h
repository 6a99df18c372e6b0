// PPJoin / PPJoin+ (Xiao, Wang, Lin, Yu — WWW'08), the state-of-the-art
// single-node kernel the paper plugs into its second stage (the "PK"
// kernel). Reimplemented from the published algorithm:
//
//   * records are consumed in non-decreasing token-set-size order;
//   * each record's *prefix* tokens are looked up in an inverted index to
//     accumulate per-candidate prefix overlaps;
//   * the length filter evicts index entries below the current minimum
//     qualifying length (the memory-footprint optimisation Section 3.2.2
//     of the paper relies on — evicted token ranges are released from the
//     arena and the class reports its peak resident size);
//   * the positional filter bounds the best-possible overlap at each match;
//   * a 128-bit hashed bitmap signature bounds the possible overlap at a
//     candidate's first match — two XORs and two popcounts — and discards
//     hopeless candidates before the costlier checks (bitwise
//     pre-verification, after arXiv:1711.07295);
//   * PPJoin+ additionally applies the suffix filter at a candidate's first
//     match;
//   * remaining candidates are confirmed with an early-terminating merge.
//
// Cache-conscious memory layout (see DESIGN.md, "Kernel memory layout"):
//
//   * the inverted index is a direct-indexed std::vector<PostingList> —
//     known TokenIds are dense stage-1 ranks, so the id IS the slot; a
//     small fallback hash map serves out-of-dictionary ids
//     (>= text::kUnknownTokenBase) only;
//   * per-candidate accumulation uses a flat array indexed by record
//     index, versioned with a probe epoch so it is never cleared, plus a
//     compact touched-list for deterministic verify order;
//   * indexed token arrays live in one contiguous arena; verification
//     merges walk sequential memory, and eviction releases arena ranges
//     (compacted amortised-O(1)) while the resident_tokens /
//     peak_resident_tokens accounting stays exact;
//   * one stream serves many independent joins: Reset() clears only the
//     posting lists the last join touched and keeps every buffer's
//     capacity except the arena's, so a PK reduce task pays for the dense
//     index once, not once per prefix-token group.
//
// The class is deliberately *streaming* (probe/insert split) so the
// MapReduce PK reducer can drive it with records arriving in the composite
// (group, length) key order, for both the self-join and the R-S join cases
// (Sections 3.2.2 and 4 of the paper). Join output is byte-identical
// across all filter configurations (the filters only remove pairs that
// verification would reject anyway).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ppjoin/token_set.h"
#include "similarity/filters.h"
#include "similarity/similarity.h"

namespace fj::ppjoin {

struct PPJoinOptions {
  /// Apply the positional filter. Disabling it (together with the suffix
  /// filter) degrades the kernel to All-Pairs (Bayardo et al., WWW'07):
  /// prefix + length filtering only.
  bool use_positional_filter = true;
  /// Apply the suffix filter (true = PPJoin+, false = plain PPJoin).
  bool use_suffix_filter = true;
  /// Apply the 128-bit hashed-signature pre-verification filter at a
  /// candidate's first match: discard the candidate when popcount
  /// arithmetic proves the overlap cannot reach the threshold, before the
  /// suffix filter and the merge. Output-preserving; only the
  /// `suffix_pruned` / `verified` / `bitmap_pruned` split changes.
  bool use_bitmap_filter = true;
};

/// Counters describing one kernel run.
struct PPJoinStats {
  uint64_t probes = 0;
  uint64_t candidates = 0;          ///< distinct (probe, indexed) pairs seen
  uint64_t positional_pruned = 0;
  uint64_t suffix_pruned = 0;
  uint64_t bitmap_pruned = 0;       ///< candidates cut by the bitmap bound
  uint64_t verified = 0;            ///< pairs reaching the merge
  uint64_t results = 0;
  uint64_t evicted_records = 0;     ///< index entries freed by length filter

  /// Posting-list accesses served by the dense direct-indexed array (each
  /// one is a hash lookup the flat layout made unnecessary).
  uint64_t hash_lookups_avoided = 0;

  /// Peak physical size of the token arena, in bytes.
  uint64_t arena_bytes = 0;

  /// Peak number of tokens simultaneously resident in the index (the
  /// memory-footprint metric of Section 3.2.2 / Figure 6).
  uint64_t peak_resident_tokens = 0;
};

class PPJoinStream {
 public:
  PPJoinStream(sim::SimilaritySpec spec, PPJoinOptions options = {});

  /// Self-join step: probe `record` against everything inserted so far,
  /// then insert it (with the shorter self-join index prefix). Records must
  /// arrive in non-decreasing token-count order. Results append to `out` as
  /// canonical (min RID, max RID) pairs.
  void ProbeAndInsert(const TokenSetRecord& record,
                      std::vector<SimilarPair>* out);

  /// R-S join, index side: insert an R record (full probe-prefix indexing,
  /// since S partners may be shorter or longer). Non-decreasing length
  /// order required.
  void InsertRS(const TokenSetRecord& record);

  /// R-S join, probe side: probe an S record against the inserted R
  /// records. Every R record of length <= LengthUpperBound(|s|) must have
  /// been inserted already (the length-class key order of Section 4
  /// guarantees this). Results append as (R rid, S rid) pairs.
  void Probe(const TokenSetRecord& record, std::vector<SimilarPair>* out);

  /// Starts a new, independent join with the same spec and options: drops
  /// every indexed record and zeroes stats(), so the stream behaves
  /// exactly like a freshly constructed one. Costs O(posting lists the
  /// last join touched), not O(largest token rank). Posting-list, record
  /// and candidate-slot capacity is kept for the next join; the token
  /// arena is released, so stats().arena_bytes reports the same peak a
  /// fresh stream would.
  void Reset();

  const PPJoinStats& stats() const { return stats_; }

  /// Tokens currently resident in the index (live, non-evicted records).
  uint64_t resident_tokens() const { return resident_tokens_; }

  size_t indexed_records() const { return store_.size(); }

 private:
  struct Posting {
    uint32_t record_index;
    uint32_t position;  ///< token position within the record
    /// Record length, duplicated from the store so the probe scan's length
    /// and positional filters read sequential posting memory instead of a
    /// random store slot per match.
    uint32_t length;
  };

  struct PostingList {
    std::vector<Posting> entries;
    size_t head = 0;  ///< entries before head are evicted (too short)
  };

  /// An indexed record: its tokens are the arena range
  /// [arena_begin, arena_begin + length). `length` survives eviction (the
  /// length filter needs it); the arena range does not.
  struct IndexedRecord {
    uint64_t rid = 0;
    sim::BitmapSignature signature;
    size_t arena_begin = 0;
    uint32_t length = 0;
  };

  /// Per-candidate accumulation state, indexed by record index. A slot is
  /// live for the current probe iff `epoch == probe_epoch_`; stale slots
  /// are reset lazily on first touch, so the array is never cleared.
  struct CandidateSlot {
    uint64_t epoch = 0;
    uint32_t overlap = 0;
    bool pruned = false;
  };

  /// Memoised MinOverlap(l, ly), indexed by partner length ly and
  /// versioned by alpha_epoch_, which only advances when the probe length
  /// l changes — probes arrive in non-decreasing length order, so entries
  /// survive across every probe of the same length. MinOverlap does robust
  /// floating-point ceiling arithmetic; computing it per posting match
  /// dominates the probe loop otherwise.
  struct AlphaCacheEntry {
    uint64_t epoch = 0;
    size_t alpha = 0;
  };

  /// Token span of a live indexed record (a view into the arena).
  TokenIdSpan TokensOf(const IndexedRecord& rec) const {
    return TokenIdSpan(arena_.data() + rec.arena_begin, rec.length);
  }

  /// Posting list for `id` on the probe path; nullptr when no postings
  /// exist. Dense ranks index the flat array directly; only unknown ids
  /// (>= text::kUnknownTokenBase) hit the fallback hash map.
  PostingList* FindPostingList(TokenId id);

  /// Posting list for `id` on the insert path (created if absent).
  PostingList& PostingListFor(TokenId id);

  /// Inserts `record` with the first `index_prefix` tokens into the index.
  /// `sig` is the record's precomputed bitmap signature, or nullptr to
  /// build it here (only done when the bitmap filter is enabled).
  void InsertWithPrefix(const TokenSetRecord& record, size_t index_prefix,
                        const sim::BitmapSignature* sig = nullptr);

  /// Shared probe logic. `self_join` canonicalizes emitted pairs. `sig` is
  /// the probe record's precomputed bitmap signature (the self-join path
  /// shares one build between probe and insert), or nullptr to build it
  /// lazily when candidates survive to verification.
  void ProbeInternal(const TokenSetRecord& record, bool self_join,
                     const sim::BitmapSignature* sig,
                     std::vector<SimilarPair>* out);

  /// Evicts store entries with fewer than `min_len` tokens (they can never
  /// match any future probe). Releases their arena ranges.
  void EvictShorterThan(size_t min_len);

  /// Drops the dead arena prefix once it outweighs the live suffix
  /// (amortised O(1) per inserted token).
  void MaybeCompactArena();

  sim::SimilaritySpec spec_;
  PPJoinOptions options_;
  /// Suffix-filter recursion depth: the PPJoin+ paper's 2.
  sim::SuffixFilter suffix_filter_{2};

  std::vector<IndexedRecord> store_;    ///< insertion order = length order
  std::vector<TokenId> arena_;          ///< all indexed tokens, contiguous
  size_t arena_live_begin_ = 0;         ///< arena_[0..here) is evicted
  size_t live_from_ = 0;                ///< store_[0..live_from_) is evicted
  uint64_t resident_tokens_ = 0;

  std::vector<PostingList> dense_index_;  ///< slot = stage-1 token rank
  std::vector<TokenId> touched_lists_;    ///< non-empty dense_index_ slots
  // lint: allow-unordered (cold path: only tokens with no stage-1 rank)
  std::unordered_map<TokenId, PostingList> unknown_index_;

  std::vector<CandidateSlot> candidate_slots_;  ///< one per indexed record
  uint64_t probe_epoch_ = 0;
  std::vector<uint32_t> candidate_order_;  ///< touched list (verify order)
  std::vector<AlphaCacheEntry> alpha_cache_;  ///< slot = partner length
  size_t alpha_probe_len_ = SIZE_MAX;  ///< probe length the cache is for
  uint64_t alpha_epoch_ = 0;
  size_t insert_alpha_len_ = SIZE_MAX;  ///< memoised MinOverlap(l, l)
  size_t insert_alpha_ = 0;

  PPJoinStats stats_;
};

/// Convenience: full PPJoin(+) self-join of a record collection (sorted
/// internally). Sorted, duplicate-free canonical pairs.
std::vector<SimilarPair> PPJoinSelfJoin(std::vector<TokenSetRecord> records,
                                        const sim::SimilaritySpec& spec,
                                        PPJoinOptions options = {},
                                        PPJoinStats* stats = nullptr);

/// Convenience: full PPJoin(+) R-S join. Sorted, duplicate-free
/// (R rid, S rid) pairs.
std::vector<SimilarPair> PPJoinRSJoin(std::vector<TokenSetRecord> r_records,
                                      std::vector<TokenSetRecord> s_records,
                                      const sim::SimilaritySpec& spec,
                                      PPJoinOptions options = {},
                                      PPJoinStats* stats = nullptr);

}  // namespace fj::ppjoin
