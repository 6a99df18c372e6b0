#include "serve/serving_index.h"

#include <algorithm>
#include <bit>
#include <map>
#include <utility>

#include "common/varint.h"
#include "data/record.h"

namespace fj::serve {
namespace {

// ProbeTopK's iterative-deepening ladder: probe cheap high thresholds
// first, fall through to the floor only when k results have not been
// found. Each rung's answer is a superset of the rungs above it, so the
// first rung with >= k results is final.
constexpr double kTopKLadder[] = {0.9, 0.75, 0.6};

// Bumped whenever the header layout changes, so an older snapshot is
// refused as DataLoss instead of being misread.
constexpr char kSnapshotMagic[] = "FJSV2";

}  // namespace

ServingIndex::ServingIndex(ServingIndexOptions options)
    : options_(options),
      floor_spec_(options.function, options.tau_floor) {}

Status ServingIndex::ValidateRecord(const TokenSetRecord& record) const {
  if (record.tokens.empty()) {
    return Status::InvalidArgument("record " + std::to_string(record.rid) +
                                   ": empty token set");
  }
  for (size_t i = 1; i < record.tokens.size(); ++i) {
    if (record.tokens[i] <= record.tokens[i - 1]) {
      return Status::InvalidArgument(
          "record " + std::to_string(record.rid) +
          ": tokens must be strictly ascending (a canonical set)");
    }
  }
  return Status::OK();
}

ServingIndex::PostingList* ServingIndex::FindPostingList(sim::TokenId id) {
  if (!text::IsUnknownToken(id)) {
    if (id >= dense_index_.size()) return nullptr;
    return &dense_index_[static_cast<size_t>(id)];
  }
  auto it = unknown_index_.find(id);
  return it == unknown_index_.end() ? nullptr : &it->second;
}

ServingIndex::PostingList& ServingIndex::PostingListFor(sim::TokenId id) {
  if (!text::IsUnknownToken(id)) {
    if (id >= dense_index_.size()) {
      dense_index_.resize(static_cast<size_t>(id) + 1);
    }
    return dense_index_[static_cast<size_t>(id)];
  }
  return unknown_index_[id];
}

void ServingIndex::AppendSlot(const TokenSetRecord& record) {
  const auto slot_index = static_cast<uint32_t>(slots_.size());
  const auto length = static_cast<uint32_t>(record.tokens.size());
  Slot slot;
  slot.rid = record.rid;
  slot.signature = sim::BuildBitmapSignature(record.tokens);
  slot.arena_begin = arena_.size();
  slot.length = length;
  arena_.insert(arena_.end(), record.tokens.begin(), record.tokens.end());
  slots_.push_back(slot);
  candidate_slots_.emplace_back();
  rid_to_slot_[record.rid] = slot_index;
  live_tokens_ += length;

  // Index the record's probe prefix at the threshold floor: any partner
  // with sim >= tau >= tau_floor shares a token within this prefix.
  const size_t index_prefix = floor_spec_.PrefixLength(record.tokens.size());
  for (size_t i = 0; i < index_prefix; ++i) {
    PostingListFor(record.tokens[i])
        .entries.push_back({slot_index, static_cast<uint32_t>(i), length});
  }
}

Status ServingIndex::Insert(const TokenSetRecord& record) {
  FJ_RETURN_IF_ERROR(ValidateRecord(record));
  if (rid_to_slot_.count(record.rid) != 0) {
    return Status::AlreadyExists("record " + std::to_string(record.rid) +
                                 " is already indexed");
  }
  AppendSlot(record);
  ++write_epoch_;
  ++stats_.inserts;
  return Status::OK();
}

Status ServingIndex::Remove(uint64_t rid) {
  auto it = rid_to_slot_.find(rid);
  if (it == rid_to_slot_.end()) {
    return Status::NotFound("record " + std::to_string(rid) +
                            " is not indexed");
  }
  Slot& slot = slots_[it->second];
  ++write_epoch_;
  slot.tombstone_epoch = write_epoch_;
  ++dead_slots_;
  live_tokens_ -= slot.length;
  rid_to_slot_.erase(it);
  ++stats_.removes;
  MaybeCompact();
  return Status::OK();
}

void ServingIndex::VerifyCandidates(const TokenSetRecord& record,
                                    const sim::SimilaritySpec& spec,
                                    std::vector<ProbeResult>* out) {
  for (uint32_t slot_index : candidate_order_) {
    const Slot& slot = slots_[slot_index];
    ++stats_.verified;
    const size_t alpha = spec.MinOverlap(record.tokens.size(), slot.length);
    const size_t overlap = sim::VerifyOverlap(record.tokens, TokensOf(slot),
                                              0, 0, 0, alpha);
    if (overlap == sim::kOverlapFailed) continue;
    const double similarity = sim::SimilarityFromOverlap(
        spec.function(), overlap, record.tokens.size(), slot.length);
    out->push_back(ProbeResult{slot.rid, similarity});
    ++stats_.results;
  }
  candidate_order_.clear();
}

void ServingIndex::ProbeUnchecked(const TokenSetRecord& record,
                                  const sim::SimilaritySpec& spec,
                                  std::vector<ProbeResult>* out) {
  ++stats_.probes;
  ++probe_epoch_;
  const size_t length = record.tokens.size();
  const size_t prefix = spec.PrefixLength(length);
  const size_t lb = spec.LengthLowerBound(length);
  const size_t ub = spec.LengthUpperBound(length);
  const sim::BitmapSignature probe_sig =
      sim::BuildBitmapSignature(record.tokens);
  for (size_t i = 0; i < prefix; ++i) {
    PostingList* plist = FindPostingList(record.tokens[i]);
    if (plist == nullptr) continue;
    for (const Posting& posting : plist->entries) {
      const Slot& slot = slots_[posting.slot];
      if (!slot.live() || slot.rid == record.rid) continue;
      if (posting.length < lb || posting.length > ub) continue;
      CandidateSlot& candidate = candidate_slots_[posting.slot];
      if (candidate.epoch == probe_epoch_) continue;
      candidate.epoch = probe_epoch_;
      ++stats_.candidates;
      const size_t alpha = spec.MinOverlap(length, posting.length);
      // First match of this candidate: no common token precedes (i,
      // posting.position) — an earlier one would itself be indexed and
      // scanned — so the positional bound applies with zero accumulated
      // overlap, and a failure is final (the pair can never qualify).
      if (!sim::PassesPositionalFilter(length, posting.length, i,
                                       posting.position, 0, alpha)) {
        ++stats_.positional_pruned;
        continue;
      }
      if (sim::BitmapOverlapUpperBound(probe_sig, slot.signature, length,
                                       posting.length) < alpha) {
        ++stats_.bitmap_pruned;
        continue;
      }
      candidate_order_.push_back(posting.slot);
    }
  }
  VerifyCandidates(record, spec, out);
}

Status ServingIndex::ProbeThreshold(const TokenSetRecord& record, double tau,
                                    std::vector<ProbeResult>* out) {
  out->clear();
  FJ_RETURN_IF_ERROR(ValidateRecord(record));
  if (tau > 1.0 || !(tau > 0.0)) {
    return Status::InvalidArgument("threshold must lie in (0, 1]");
  }
  if (tau < options_.tau_floor - 1e-12) {
    return Status::FailedPrecondition(
        "probe threshold " + std::to_string(tau) +
        " is below the index floor " + std::to_string(options_.tau_floor) +
        " (rebuild the index with a lower tau_floor)");
  }
  const sim::SimilaritySpec spec(options_.function, tau);
  ProbeUnchecked(record, spec, out);
  std::sort(out->begin(), out->end(),
            [](const ProbeResult& a, const ProbeResult& b) {
              return a.rid < b.rid;
            });
  return Status::OK();
}

Status ServingIndex::ProbeTopK(const TokenSetRecord& record, size_t k,
                               std::vector<ProbeResult>* out) {
  out->clear();
  FJ_RETURN_IF_ERROR(ValidateRecord(record));
  if (k == 0) return Status::OK();
  for (double rung : kTopKLadder) {
    if (rung <= options_.tau_floor) continue;
    out->clear();
    ProbeUnchecked(record, sim::SimilaritySpec(options_.function, rung), out);
    if (out->size() >= k) break;
    ++stats_.topk_deepenings;
  }
  if (out->size() < k) {
    out->clear();
    ProbeUnchecked(record, floor_spec_, out);
  }
  std::sort(out->begin(), out->end(),
            [](const ProbeResult& a, const ProbeResult& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.rid < b.rid;
            });
  if (out->size() > k) out->resize(k);
  return Status::OK();
}

void ServingIndex::CompactNow() {
  std::vector<TokenSetRecord> live;
  ExportLive(&live);
  const size_t purged = dead_slots_;

  slots_.clear();
  arena_.clear();
  dense_index_.clear();
  unknown_index_.clear();
  rid_to_slot_.clear();
  candidate_slots_.clear();
  candidate_order_.clear();
  probe_epoch_ = 0;
  dead_slots_ = 0;
  live_tokens_ = 0;

  for (const TokenSetRecord& record : live) AppendSlot(record);
  ++stats_.compactions;
  stats_.tombstones_purged += purged;
}

void ServingIndex::ExportLive(std::vector<TokenSetRecord>* out) const {
  out->clear();
  out->reserve(rid_to_slot_.size());
  for (const Slot& slot : slots_) {
    if (!slot.live()) continue;
    const auto tokens = TokensOf(slot);
    out->push_back(TokenSetRecord{
        slot.rid, std::vector<sim::TokenId>(tokens.begin(), tokens.end())});
  }
}

void ServingIndex::MaybeCompact() {
  const double fraction = options_.compact_tombstone_fraction;
  if (!(fraction > 0.0) || fraction > 1.0 || slots_.empty()) return;
  if (static_cast<double>(dead_slots_) >=
      fraction * static_cast<double>(slots_.size())) {
    CompactNow();
  }
}

// --- Seeding and snapshots -----------------------------------------------

Result<SeededIndex> BuildFromJoinOutput(
    const std::vector<std::string>& ordering_lines,
    const std::vector<std::string>& record_lines,
    const text::Tokenizer& tokenizer, const ServingIndexOptions& options) {
  FJ_ASSIGN_OR_RETURN(std::vector<data::Record> records,
                      data::RecordsFromLines(record_lines));
  std::vector<std::vector<std::string>> tokenized;
  tokenized.reserve(records.size());
  for (const auto& record : records) {
    tokenized.push_back(tokenizer.Tokenize(record.JoinAttribute()));
  }

  SeededIndex seeded;
  if (!ordering_lines.empty()) {
    FJ_ASSIGN_OR_RETURN(seeded.ordering,
                        text::TokenOrdering::FromLines(ordering_lines));
  } else {
    // No offline stage-1 output: derive the ordering from the corpus the
    // way stage 1 would (frequency ascending, ties lexicographic).
    std::map<std::string, uint64_t> counts;
    for (const auto& tokens : tokenized) {
      for (const auto& token : tokens) ++counts[token];
    }
    seeded.ordering =
        text::TokenOrdering::FromCounts({counts.begin(), counts.end()});
  }

  seeded.index = std::make_unique<ServingIndex>(options);
  for (size_t i = 0; i < records.size(); ++i) {
    TokenSetRecord record{records[i].rid,
                          seeded.ordering.ToSortedIds(tokenized[i])};
    // A join attribute that tokenizes to nothing can never join; skip it
    // (the batch pipeline never emits pairs for it either).
    if (record.tokens.empty()) continue;
    FJ_RETURN_IF_ERROR(seeded.index->Insert(record));
  }
  return seeded;
}

std::vector<std::string> SaveSnapshot(const ServingIndex& index,
                                      const text::TokenOrdering& ordering) {
  const ServingIndexOptions& options = index.options();
  std::vector<std::string> blocks;

  std::string header(kSnapshotMagic);
  AppendVarint(&header, static_cast<uint64_t>(options.function));
  AppendVarint(&header, std::bit_cast<uint64_t>(options.tau_floor));
  AppendVarint(&header,
               std::bit_cast<uint64_t>(options.compact_tombstone_fraction));

  std::vector<TokenSetRecord> live;
  index.ExportLive(&live);
  AppendVarint(&header, live.size());
  blocks.push_back(std::move(header));

  // Ordering lines are "token<TAB>count" — newline-free — so one text
  // block holds them all.
  std::string ordering_block;
  for (const std::string& line : ordering.ToLines()) {
    ordering_block += line;
    ordering_block += '\n';
  }
  blocks.push_back(std::move(ordering_block));

  for (const TokenSetRecord& record : live) {
    std::string block;
    AppendVarint(&block, record.rid);
    AppendVarint(&block, record.tokens.size());
    sim::TokenId previous = 0;
    for (sim::TokenId token : record.tokens) {
      AppendVarint(&block, token - previous);  // ascending: deltas fit
      previous = token;
    }
    blocks.push_back(std::move(block));
  }
  return blocks;
}

Result<SeededIndex> LoadSnapshot(const std::vector<std::string>& blocks) {
  constexpr size_t kMagicLen = sizeof(kSnapshotMagic) - 1;
  if (blocks.size() < 2 || blocks[0].size() < kMagicLen ||
      blocks[0].compare(0, kMagicLen, kSnapshotMagic) != 0) {
    return Status::DataLoss("not a serving-index snapshot");
  }
  const std::string& header = blocks[0];
  size_t pos = kMagicLen;
  uint64_t function = 0, tau_bits = 0, fraction_bits = 0, record_count = 0;
  for (uint64_t* field :
       {&function, &tau_bits, &fraction_bits, &record_count}) {
    if (!DecodeVarint(header, &pos, field)) {
      return Status::DataLoss("truncated snapshot header");
    }
  }
  if (function > static_cast<uint64_t>(sim::SimilarityFunction::kOverlap)) {
    return Status::DataLoss("snapshot names an unknown similarity function");
  }
  ServingIndexOptions options;
  options.function = static_cast<sim::SimilarityFunction>(function);
  options.tau_floor = std::bit_cast<double>(tau_bits);
  options.compact_tombstone_fraction = std::bit_cast<double>(fraction_bits);
  if (!(options.tau_floor > 0.0) || options.tau_floor > 1.0) {
    return Status::DataLoss("snapshot carries an invalid tau floor");
  }
  if (record_count != blocks.size() - 2) {
    return Status::DataLoss("snapshot record count does not match blocks");
  }

  SeededIndex seeded;
  std::vector<std::string> ordering_lines;
  const std::string& ordering_block = blocks[1];
  size_t start = 0;
  while (start < ordering_block.size()) {
    const size_t end = ordering_block.find('\n', start);
    if (end == std::string::npos) {
      return Status::DataLoss("snapshot ordering block is unterminated");
    }
    ordering_lines.push_back(ordering_block.substr(start, end - start));
    start = end + 1;
  }
  if (!ordering_lines.empty()) {
    FJ_ASSIGN_OR_RETURN(seeded.ordering,
                        text::TokenOrdering::FromLines(ordering_lines));
  }

  seeded.index = std::make_unique<ServingIndex>(options);
  for (size_t b = 2; b < blocks.size(); ++b) {
    const std::string& block = blocks[b];
    size_t at = 0;
    uint64_t rid = 0, count = 0;
    if (!DecodeVarint(block, &at, &rid) ||
        !DecodeVarint(block, &at, &count)) {
      return Status::DataLoss("truncated snapshot record block");
    }
    // Every delta takes at least one byte, so a count beyond the bytes
    // left is corruption: refuse it before reserving.
    if (count > block.size() - at) {
      return Status::DataLoss("snapshot record declares more tokens than "
                              "its block holds");
    }
    TokenSetRecord record;
    record.rid = rid;
    record.tokens.reserve(static_cast<size_t>(count));
    sim::TokenId previous = 0;
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t delta = 0;
      if (!DecodeVarint(block, &at, &delta)) {
        return Status::DataLoss("truncated snapshot token deltas");
      }
      previous += delta;
      record.tokens.push_back(previous);
    }
    FJ_RETURN_IF_ERROR(seeded.index->Insert(record));
  }
  return seeded;
}

}  // namespace fj::serve
