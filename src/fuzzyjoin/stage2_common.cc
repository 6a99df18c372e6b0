#include <cinttypes>
#include <cstdio>

#include "common/string_util.h"
#include "fuzzyjoin/stage2.h"
#include "fuzzyjoin/stage2_internal.h"
#include "mapreduce/record_format.h"
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

void FormatRidPairOut(mr::RecordFormat format, uint64_t rid1, uint64_t rid2,
                      double similarity, std::string* out) {
  if (format == mr::RecordFormat::kBinary) {
    mr::FormatRidPairRecord(rid1, rid2, similarity, out);
    return;
  }
  FormatRidPairLine(rid1, rid2, similarity, out);
}

Result<std::tuple<uint64_t, uint64_t, double>> ParseRidPairLine(
    const std::string& line) {
  if (mr::IsBinaryRecord(line)) {
    uint64_t rid1 = 0;
    uint64_t rid2 = 0;
    double similarity = 0;
    if (!mr::ParseRidPairRecord(line, &rid1, &rid2, &similarity)) {
      return Status::InvalidArgument("bad rid-pair record");
    }
    return std::tuple<uint64_t, uint64_t, double>(rid1, rid2, similarity);
  }
  std::vector<std::string> fields = fj::Split(line, '\t');
  if (fields.size() != 3) {
    return Status::InvalidArgument("bad rid-pair line: " +
                                   fj::ErrorExcerpt(line));
  }
  FJ_ASSIGN_OR_RETURN(uint64_t rid1, fj::ParseUint64(fields[0]));
  FJ_ASSIGN_OR_RETURN(uint64_t rid2, fj::ParseUint64(fields[1]));
  FJ_ASSIGN_OR_RETURN(double similarity, fj::ParseDouble(fields[2]));
  return std::tuple<uint64_t, uint64_t, double>(rid1, rid2, similarity);
}

namespace internal {

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
