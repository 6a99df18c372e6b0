#include "ppjoin/ppjoin.h"

#include <algorithm>
#include <cassert>

#include "text/token_ordering.h"

namespace fj::ppjoin {

using sim::kOverlapFailed;
using sim::PassesPositionalFilter;
using sim::SimilarityFromOverlap;
using sim::VerifyOverlap;

namespace {

/// Compacting below this many dead tokens is not worth the memmove.
constexpr size_t kMinCompactTokens = 1024;

}  // namespace

PPJoinStream::PPJoinStream(sim::SimilaritySpec spec, PPJoinOptions options)
    : spec_(spec),
      options_(options),
      suffix_filter_(options.suffix_filter_depth) {}

void PPJoinStream::Reset() {
  for (TokenId id : touched_lists_) {
    PostingList& list = dense_index_[id];
    list.entries.clear();
    list.head = 0;
  }
  touched_lists_.clear();
  unknown_index_.clear();
  store_.clear();
  std::vector<TokenId>().swap(arena_);
  arena_live_begin_ = 0;
  live_from_ = 0;
  resident_tokens_ = 0;
  candidate_slots_.clear();
  // The next probe advances alpha_epoch_, which stales every memo entry;
  // probe_epoch_ keeps counting up, so new slots (epoch 0) start stale.
  alpha_probe_len_ = SIZE_MAX;
  stats_ = PPJoinStats{};
}

void PPJoinStream::ProbeAndInsert(const TokenSetRecord& record,
                                  std::vector<SimilarPair>* out) {
  // One signature build serves both the probe and the insert below.
  sim::BitmapSignature sig;
  if (options_.use_bitmap_filter && !record.tokens.empty()) {
    sig = sim::BuildBitmapSignature(record.tokens);
  }
  ProbeInternal(record, /*self_join=*/true, &sig, out);

  // Self-join index prefix: every future probe x has |x| >= |record|, and
  // MinOverlap is non-decreasing in the partner length, so the tightest
  // overlap requirement is at |x| == |record|. This gives a *shorter*
  // prefix than the probe prefix — fewer postings, less memory.
  size_t l = record.tokens.size();
  if (l == 0) return;
  if (l != insert_alpha_len_) {
    insert_alpha_len_ = l;
    insert_alpha_ = spec_.MinOverlap(l, l);
  }
  size_t alpha_equal = insert_alpha_;
  size_t index_prefix = l >= alpha_equal ? l - alpha_equal + 1 : 0;
  InsertWithPrefix(record, index_prefix, &sig);
}

void PPJoinStream::InsertRS(const TokenSetRecord& record) {
  // R-S index prefix: S partners may be *shorter* than this R record, so
  // the tightest requirement is at the length lower bound — the full probe
  // prefix.
  InsertWithPrefix(record, spec_.PrefixLength(record.tokens.size()));
}

void PPJoinStream::Probe(const TokenSetRecord& record,
                         std::vector<SimilarPair>* out) {
  ProbeInternal(record, /*self_join=*/false, /*sig=*/nullptr, out);
}

PPJoinStream::PostingList* PPJoinStream::FindPostingList(TokenId id) {
  if (id < text::kUnknownTokenBase) {
    ++stats_.hash_lookups_avoided;
    if (id >= dense_index_.size()) return nullptr;
    PostingList& list = dense_index_[id];
    return list.entries.empty() ? nullptr : &list;
  }
  auto it = unknown_index_.find(id);
  return it == unknown_index_.end() ? nullptr : &it->second;
}

PPJoinStream::PostingList& PPJoinStream::PostingListFor(TokenId id) {
  if (id < text::kUnknownTokenBase) {
    ++stats_.hash_lookups_avoided;
    if (id >= dense_index_.size()) {
      // Grow geometrically: ranks arrive roughly densely, but a resize per
      // new id would be quadratic on adversarial orders.
      dense_index_.resize(std::max<size_t>(id + 1, dense_index_.size() * 2));
    }
    PostingList& list = dense_index_[id];
    if (list.entries.empty()) touched_lists_.push_back(id);
    return list;
  }
  return unknown_index_[id];
}

void PPJoinStream::InsertWithPrefix(const TokenSetRecord& record,
                                    size_t index_prefix,
                                    const sim::BitmapSignature* sig) {
  size_t l = record.tokens.size();
  if (l == 0) return;
  assert(store_.empty() || l >= store_.back().length);

  uint32_t idx = static_cast<uint32_t>(store_.size());
  IndexedRecord rec;
  rec.rid = record.rid;
  if (options_.use_bitmap_filter) {
    rec.signature = sig != nullptr ? *sig
                                   : sim::BuildBitmapSignature(record.tokens);
  }
  rec.arena_begin = arena_.size();
  rec.length = static_cast<uint32_t>(l);
  arena_.insert(arena_.end(), record.tokens.begin(), record.tokens.end());
  store_.push_back(rec);
  candidate_slots_.emplace_back();

  resident_tokens_ += l;
  stats_.peak_resident_tokens =
      std::max(stats_.peak_resident_tokens, resident_tokens_);
  stats_.arena_bytes = std::max<uint64_t>(
      stats_.arena_bytes, arena_.capacity() * sizeof(TokenId));

  index_prefix = std::min(index_prefix, l);
  for (size_t pos = 0; pos < index_prefix; ++pos) {
    PostingListFor(record.tokens[pos])
        .entries.push_back(
            Posting{idx, static_cast<uint32_t>(pos), rec.length});
  }
}

void PPJoinStream::EvictShorterThan(size_t min_len) {
  while (live_from_ < store_.size() && store_[live_from_].length < min_len) {
    resident_tokens_ -= store_[live_from_].length;
    ++live_from_;
    ++stats_.evicted_records;
  }
  arena_live_begin_ = live_from_ < store_.size()
                          ? store_[live_from_].arena_begin
                          : arena_.size();
  MaybeCompactArena();
}

void PPJoinStream::MaybeCompactArena() {
  // Compact when the dead prefix outweighs the live suffix: every live
  // token moves at most once per halving, so the memmove cost is O(1)
  // amortised per inserted token.
  if (arena_live_begin_ < kMinCompactTokens ||
      arena_live_begin_ * 2 < arena_.size()) {
    return;
  }
  arena_.erase(arena_.begin(),
               arena_.begin() + static_cast<ptrdiff_t>(arena_live_begin_));
  for (size_t i = live_from_; i < store_.size(); ++i) {
    store_[i].arena_begin -= arena_live_begin_;
  }
  arena_live_begin_ = 0;
}

void PPJoinStream::ProbeInternal(const TokenSetRecord& record, bool self_join,
                                 const sim::BitmapSignature* sig,
                                 std::vector<SimilarPair>* out) {
  ++stats_.probes;
  size_t l = record.tokens.size();
  if (l == 0) return;

  EvictShorterThan(spec_.LengthLowerBound(l));
  size_t upper = spec_.LengthUpperBound(l);
  size_t probe_prefix = spec_.PrefixLength(l);

  // Candidate lengths never exceed the longest indexed record, so the
  // epoch-stamped MinOverlap memo only needs that many slots. Its version
  // advances only when the probe length changes, so entries survive
  // across consecutive probes of the same length.
  size_t max_len = live_from_ < store_.size() ? store_.back().length : 0;
  if (alpha_cache_.size() <= max_len) alpha_cache_.resize(max_len + 1);
  if (l != alpha_probe_len_) {
    alpha_probe_len_ = l;
    ++alpha_epoch_;
  }

  ++probe_epoch_;
  candidate_order_.clear();

  const uint64_t epoch = probe_epoch_;
  const uint64_t alpha_epoch = alpha_epoch_;
  const IndexedRecord* const store = store_.data();
  CandidateSlot* const slots = candidate_slots_.data();
  AlphaCacheEntry* const alphas = alpha_cache_.data();
  const bool use_positional = options_.use_positional_filter;
  const bool use_suffix = options_.use_suffix_filter;
  const bool use_bitmap = options_.use_bitmap_filter;

  TokenIdSpan x(record.tokens);
  sim::BitmapSignature x_sig;
  if (use_bitmap) {
    x_sig = sig != nullptr ? *sig : sim::BuildBitmapSignature(x);
  }
  for (size_t i = 0; i < probe_prefix; ++i) {
    PostingList* list = FindPostingList(x[i]);
    if (list == nullptr) continue;
    // Advance past postings of evicted (too short) records.
    while (list->head < list->entries.size() &&
           list->entries[list->head].record_index < live_from_) {
      ++list->head;
    }
    const Posting* p = list->entries.data() + list->head;
    const Posting* const end = list->entries.data() + list->entries.size();
    for (; p != end; ++p) {
      size_t ly = p->length;
      // In the R-S case the index may already hold R records longer than
      // this probe's upper bound (they were streamed by length class);
      // the length filter skips them.
      if (ly > upper) continue;
      uint32_t y_idx = p->record_index;

      CandidateSlot& slot = slots[y_idx];
      if (slot.epoch != epoch) {
        slot.epoch = epoch;
        slot.overlap = 0;
        slot.pruned = false;
      }
      if (slot.pruned) continue;
      bool first = slot.overlap == 0;

      AlphaCacheEntry& memo = alphas[ly];
      if (memo.epoch != alpha_epoch) {
        memo.epoch = alpha_epoch;
        memo.alpha = spec_.MinOverlap(l, ly);
      }
      size_t alpha = memo.alpha;
      size_t j = p->position;
      if (use_positional &&
          !PassesPositionalFilter(l, ly, i, j, slot.overlap, alpha)) {
        slot.pruned = true;
        ++stats_.positional_pruned;
        continue;
      }
      if (first) {
        ++stats_.candidates;
        candidate_order_.push_back(y_idx);
        // Bitmap pre-verification filter, cheapest first: two XORs and two
        // popcounts bound the overlap; a hopeless candidate skips both the
        // suffix filter and the verification merge. Output-preserving —
        // the bound only ever rejects pairs the merge would reject.
        if (use_bitmap &&
            sim::BitmapOverlapUpperBound(x_sig, store[y_idx].signature, l,
                                         ly) < alpha) {
          slot.pruned = true;
          ++stats_.bitmap_pruned;
          continue;
        }
        if (use_suffix) {
          // Tokens at positions <= i in x and <= j in y can contribute at
          // most 1 + min(i, j) to the overlap; the suffixes must supply
          // the rest.
          size_t covered = 1 + std::min(i, j);
          size_t required = alpha > covered ? alpha - covered : 0;
          TokenIdSpan x_s = x.subspan(i + 1);
          TokenIdSpan y_s = TokensOf(store[y_idx]).subspan(j + 1);
          if (!suffix_filter_.MayQualify(x_s, y_s, required)) {
            slot.pruned = true;
            ++stats_.suffix_pruned;
            continue;
          }
        }
      }
      ++slot.overlap;
    }
  }

  for (uint32_t y_idx : candidate_order_) {
    const CandidateSlot& slot = slots[y_idx];
    if (slot.pruned || slot.overlap == 0) continue;
    const IndexedRecord& y = store[y_idx];
    size_t ly = y.length;
    size_t alpha = alphas[ly].alpha;  // stamped during the scan above
    ++stats_.verified;
    size_t overlap = VerifyOverlap(x, TokensOf(y), 0, 0, 0, alpha);
    if (overlap == kOverlapFailed) continue;
    double similarity =
        SimilarityFromOverlap(spec_.function(), overlap, l, ly);
    if (self_join) {
      out->push_back(MakeSelfJoinPair(y.rid, record.rid, similarity));
    } else {
      out->push_back(SimilarPair{y.rid, record.rid, similarity});
    }
    ++stats_.results;
  }
}

std::vector<SimilarPair> PPJoinSelfJoin(std::vector<TokenSetRecord> records,
                                        const sim::SimilaritySpec& spec,
                                        PPJoinOptions options,
                                        PPJoinStats* stats) {
  SortByLength(&records);
  PPJoinStream stream(spec, options);
  std::vector<SimilarPair> out;
  for (const auto& record : records) stream.ProbeAndInsert(record, &out);
  if (stats != nullptr) *stats = stream.stats();
  SortAndDedupePairs(&out);
  return out;
}

std::vector<SimilarPair> PPJoinRSJoin(std::vector<TokenSetRecord> r_records,
                                      std::vector<TokenSetRecord> s_records,
                                      const sim::SimilaritySpec& spec,
                                      PPJoinOptions options,
                                      PPJoinStats* stats) {
  SortByLength(&r_records);
  SortByLength(&s_records);
  PPJoinStream stream(spec, options);
  std::vector<SimilarPair> out;

  // Interleave by the Section 4 rule: before probing an S record of length
  // l, insert every R record of length <= LengthUpperBound(l).
  size_t r_pos = 0;
  for (const auto& s : s_records) {
    size_t upper = spec.LengthUpperBound(s.tokens.size());
    while (r_pos < r_records.size() &&
           r_records[r_pos].tokens.size() <= upper) {
      stream.InsertRS(r_records[r_pos]);
      ++r_pos;
    }
    stream.Probe(s, &out);
  }
  if (stats != nullptr) *stats = stream.stats();
  SortAndDedupePairs(&out);
  return out;
}

}  // namespace fj::ppjoin
