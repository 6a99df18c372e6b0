#include <cinttypes>
#include <cstdio>
#include <string_view>

#include "common/string_util.h"
#include "fuzzyjoin/stage2.h"
#include "fuzzyjoin/stage2_internal.h"
#include "ppjoin/ppjoin.h"

namespace fj::join {

void FormatRidPairLine(uint64_t rid1, uint64_t rid2, double similarity,
                       std::string* out) {
  char buf[80];
  int n = std::snprintf(buf, sizeof(buf), "%" PRIu64 "\t%" PRIu64 "\t%.6f",
                        rid1, rid2, similarity);
  out->assign(buf, static_cast<size_t>(n));
}

std::string FormatRidPairLine(uint64_t rid1, uint64_t rid2,
                              double similarity) {
  std::string out;
  FormatRidPairLine(rid1, rid2, similarity, &out);
  return out;
}

Result<std::tuple<uint64_t, uint64_t, double>> ParseRidPairLine(
    const std::string& line) {
  // Exactly two tabs: rid1, rid2 and the similarity, parsed in place.
  const std::string_view view(line);
  const size_t tab1 = view.find('\t');
  const size_t tab2 =
      tab1 == std::string_view::npos ? tab1 : view.find('\t', tab1 + 1);
  if (tab2 == std::string_view::npos ||
      view.find('\t', tab2 + 1) != std::string_view::npos) {
    return Status::InvalidArgument("bad rid-pair line: " +
                                   fj::ErrorExcerpt(line));
  }
  FJ_ASSIGN_OR_RETURN(uint64_t rid1, fj::ParseUint64(view.substr(0, tab1)));
  FJ_ASSIGN_OR_RETURN(uint64_t rid2,
                      fj::ParseUint64(view.substr(tab1 + 1, tab2 - tab1 - 1)));
  FJ_ASSIGN_OR_RETURN(double similarity,
                      fj::ParseDouble(view.substr(tab2 + 1)));
  return std::tuple<uint64_t, uint64_t, double>(rid1, rid2, similarity);
}

namespace internal {

Stage2Context MakeStage2Context(const JoinConfig& config,
                                const std::vector<std::string>* ordering_lines) {
  Stage2Context ctx;
  ctx.tokenizer = config.tokenizer;
  ctx.ordering_lines = ordering_lines;
  ctx.spec = config.MakeSpec();
  ctx.routing = config.routing;
  ctx.num_groups = config.num_groups;
  ctx.group_assignment = config.group_assignment;
  ctx.num_blocks = config.num_blocks;
  return ctx;
}

std::string SerializeProjection(const TokenSetRecord& projection) {
  std::string out = std::to_string(projection.rid);
  for (TokenId id : projection.tokens) {
    out += ' ';
    out += std::to_string(id);
  }
  return out;
}

Result<TokenSetRecord> ParseProjection(const std::string& line) {
  std::vector<std::string> fields = fj::Split(line, ' ');
  if (fields.empty()) {
    return Status::InvalidArgument("empty projection line");
  }
  TokenSetRecord projection;
  FJ_ASSIGN_OR_RETURN(projection.rid, fj::ParseUint64(fields[0]));
  projection.tokens.reserve(fields.size() - 1);
  for (size_t i = 1; i < fields.size(); ++i) {
    FJ_ASSIGN_OR_RETURN(uint64_t id, fj::ParseUint64(fields[i]));
    projection.tokens.push_back(id);
  }
  return projection;
}

void MergePPJoinStats(const ppjoin::PPJoinStats& stats, mr::TaskContext* ctx) {
  auto& counters = ctx->counters();
  counters.Add("stage2.pk.probes", static_cast<int64_t>(stats.probes));
  counters.Add("stage2.pk.candidates", static_cast<int64_t>(stats.candidates));
  counters.Add("stage2.pk.positional_pruned",
               static_cast<int64_t>(stats.positional_pruned));
  counters.Add("stage2.pk.suffix_pruned",
               static_cast<int64_t>(stats.suffix_pruned));
  counters.Add("stage2.pk.bitmap_pruned",
               static_cast<int64_t>(stats.bitmap_pruned));
  counters.Add("stage2.pk.verified", static_cast<int64_t>(stats.verified));
  counters.Add("stage2.pk.results", static_cast<int64_t>(stats.results));
  counters.Add("stage2.pk.evicted_records",
               static_cast<int64_t>(stats.evicted_records));
  counters.Add("stage2.pk.hash_lookups_avoided",
               static_cast<int64_t>(stats.hash_lookups_avoided));
  counters.Max("stage2.pk.arena_bytes",
               static_cast<int64_t>(stats.arena_bytes));
}

}  // namespace internal
}  // namespace fj::join
