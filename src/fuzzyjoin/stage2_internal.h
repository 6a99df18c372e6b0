// The projection mapper base that the stage-2 kernel (stage2.cc) and the
// one-stage join (one_stage.cc) share, and the PPJoin+ counters both
// report. Internal to the fuzzyjoin library; not part of the public API.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "data/record.h"
#include "fuzzyjoin/config.h"
#include "fuzzyjoin/projection.h"
#include "fuzzyjoin/stage2.h"
#include "mapreduce/job.h"
#include "ppjoin/ppjoin.h"
#include "text/token_ordering.h"

namespace fj::join::internal {

/// Immutable per-job inputs captured by mapper factories.
struct Stage2Context {
  std::shared_ptr<const text::Tokenizer> tokenizer;
  /// Raw stage-1 output; every map task parses it in Setup (really, so the
  /// broadcast-loading cost the paper discusses is metered, not modeled).
  /// The driver parses it once before the job starts and returns any
  /// error, so the per-task parse succeeds.
  const std::vector<std::string>* ordering_lines = nullptr;
  sim::SimilaritySpec spec{sim::SimilarityFunction::kJaccard, 0.8};
  TokenRouting routing = TokenRouting::kIndividualTokens;
  uint32_t num_groups = 1;
  GroupAssignment group_assignment = GroupAssignment::kRoundRobin;
};

/// The Stage2Context fields a JoinConfig fixes.
Stage2Context MakeStage2Context(const JoinConfig& config,
                                const std::vector<std::string>* ordering_lines);

/// Base for stage-2 mappers: parses records, tokenizes the join attribute,
/// converts to sorted token ids under the stage-1 ordering, and computes
/// prefix routing groups. `V` is the shuffled value: the projection, or
/// (one-stage join) the whole record line. Bad and empty records are
/// counted as "<counter_prefix>.bad_records" / ".empty_records".
template <typename V = TokenSetRecord>
class ProjectionMapperBase : public mr::Mapper<Stage2Key, V> {
 public:
  explicit ProjectionMapperBase(Stage2Context ctx,
                                std::string counter_prefix = "stage2")
      : ctx_(std::move(ctx)), counter_prefix_(std::move(counter_prefix)) {}

  void Setup(mr::TaskContext*) override {
    // Each map task loads the broadcast token ordering — the per-task cost
    // the paper attributes to distributing stage-1 output.
    ordering_ = text::TokenOrdering::FromLines(*ctx_.ordering_lines).value();
  }

 protected:
  /// Projects one input line. Returns false (and counts why) when the line
  /// is unparsable or the token set is empty. The record is parsed in place
  /// and tokenized into task-owned buffers.
  bool ProjectRecord(const mr::InputRecord& record, mr::TaskContext* ctx,
                     TokenSetRecord* projection) {
    auto view = data::RecordView::FromLine(*record.line);
    if (!view.ok()) {
      ctx->counters().Add(counter_prefix_ + ".bad_records", 1);
      ctx->QuarantineRecord(*record.line);
      return false;
    }
    projection->rid = view->rid;
    view->JoinAttributeInto(&attribute_);
    ctx_.tokenizer->TokenizeInto(attribute_, &tokens_);
    ordering_.ToSortedIds(tokens_, &projection->tokens);
    if (projection->tokens.empty()) {
      ctx->counters().Add(counter_prefix_ + ".empty_records", 1);
      return false;
    }
    return true;
  }

  uint32_t RouteToken(TokenId id) const {
    // Individual routing: the token rank itself is the key. Grouped
    // routing: round-robin over the frequency order, which balances the
    // sum of token frequencies across groups (Section 3.2) — or contiguous
    // ranges, the unbalanced strawman kept for ablation.
    if (ctx_.routing == TokenRouting::kIndividualTokens) {
      return static_cast<uint32_t>(id);
    }
    if (ctx_.group_assignment == GroupAssignment::kRoundRobin) {
      return static_cast<uint32_t>(id % ctx_.num_groups);
    }
    size_t dictionary = std::max<size_t>(1, ordering_.size());
    size_t width = (dictionary + ctx_.num_groups - 1) / ctx_.num_groups;
    return static_cast<uint32_t>(std::min<TokenId>(
        id / width, ctx_.num_groups - 1));
  }

  /// Distinct routing groups of the projection's prefix, in first-seen
  /// order. Unknown (out-of-ordering) tokens are skipped: they can never
  /// match the indexed relation (paper, Section 4, stage 1). Under
  /// length-signature routing there are no token groups at all — the
  /// length class (handled by the length-routing mapper) is the only
  /// signature.
  std::vector<uint32_t> PrefixGroups(const TokenSetRecord& projection) const {
    if (ctx_.routing == TokenRouting::kLengthSignatures) return {0};
    size_t prefix = ctx_.spec.PrefixLength(projection.tokens.size());
    std::vector<uint32_t> groups;
    groups.reserve(prefix);
    for (size_t i = 0; i < prefix; ++i) {
      TokenId id = projection.tokens[i];
      if (text::IsUnknownToken(id)) continue;
      uint32_t g = RouteToken(id);
      bool seen = false;
      for (uint32_t existing : groups) {
        if (existing == g) {
          seen = true;
          break;
        }
      }
      if (!seen) groups.push_back(g);
    }
    return groups;
  }

  Stage2Context ctx_;
  text::TokenOrdering ordering_;

 private:
  std::string counter_prefix_;
  /// Task-owned buffers reused by every ProjectRecord call.
  std::string attribute_;
  text::TokenList tokens_;
};

/// Merges PPJoin kernel statistics, and the peak resident tokens, into
/// job counters.
void MergePPJoinStats(const ppjoin::PPJoinStats& stats, mr::TaskContext* ctx);

}  // namespace fj::join::internal
