// Stage 3 — Record Join (Sections 3.3 and 4).
//
// Combines the stage-2 RID pairs with the original records to produce
// pairs of complete records. Duplicate RID pairs from stage 2 are
// eliminated here. Two variants:
//
//   BRJ  (Basic Record Join) — two phases. Phase 1 reads both the record
//        file(s) and the RID-pair file (mappers tell them apart by input
//        file), routes records and pairs by RID, and emits one half-filled
//        pair per (record, pair) meeting. Phase 2 groups the two halves of
//        each pair and outputs the joined record pair.
//   OPRJ (One-Phase Record Join) — the RID-pair list is broadcast: every
//        map task loads and indexes it, then streams the record file(s),
//        emitting halves directly; one reduce phase assembles them. Fails
//        with ResourceExhausted when the list exceeds the configured
//        memory budget — the paper's observed OPRJ out-of-memory point.
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "data/record.h"
#include "fuzzyjoin/config.h"
#include "mapreduce/dfs.h"
#include "mapreduce/metrics.h"

namespace fj::join {

/// One final join result: two complete records and their similarity.
struct JoinedPair {
  double similarity = 0;
  data::Record first;   ///< self-join: smaller RID; R-S join: the R record
  data::Record second;  ///< self-join: larger RID; R-S join: the S record

  /// "rid1<TAB>rid2<TAB>sim<TAB>title1<TAB>authors1<TAB>payload1<TAB>
  ///  title2<TAB>authors2<TAB>payload2" (payload tabs sanitized to spaces).
  std::string ToLine() const;
  static Result<JoinedPair> FromLine(const std::string& line);
};

/// Formats one joined line from two record views: the format of
/// JoinedPair::ToLine, which calls it, and of every reducer that writes
/// a joined pair straight from the parsed record lines.
std::string FormatJoinedLine(double similarity, const data::RecordView& first,
                             const data::RecordView& second);

/// Parses a whole stage-3 output file.
Result<std::vector<JoinedPair>> ReadJoinedPairs(const mr::Dfs& dfs,
                                                const std::string& file);

struct Stage3Result {
  std::string output_file;
  std::vector<mr::JobMetrics> jobs;
};

/// Self-join record join: `records_file` + `pairs_file` -> joined pairs.
Result<Stage3Result> RunStage3SelfJoin(mr::Dfs* dfs,
                                       const std::string& records_file,
                                       const std::string& pairs_file,
                                       const std::string& output_file,
                                       const JoinConfig& config);

/// R-S record join; `pairs_file` holds (R rid, S rid, sim) lines.
Result<Stage3Result> RunStage3RSJoin(mr::Dfs* dfs, const std::string& r_file,
                                     const std::string& s_file,
                                     const std::string& pairs_file,
                                     const std::string& output_file,
                                     const JoinConfig& config);

}  // namespace fj::join
