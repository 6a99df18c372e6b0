// Stage 1 — Token Ordering (Section 3.1).
//
// Scans the records, counts the frequency of every join-attribute token,
// and produces the global token ordering (increasing frequency) that the
// prefix filter in stage 2 depends on. Two variants:
//
//   BTO  (Basic Token Ordering)    — two MapReduce phases: a counting job
//        with a combiner, then a sort job with a single reducer.
//   OPTO (One-Phase Token Ordering) — one phase: the single reducer keeps
//        (token, count) pairs locally and sorts them in its tear-down,
//        exploiting the fact that the token dictionary is much smaller
//        than the data.
//
// Output: a Dfs file of "token<TAB>count" lines in rank order, parseable by
// text::TokenOrdering::FromLines, whatever JoinConfig::block_codec the
// jobs shuffle with.
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "fuzzyjoin/config.h"
#include "mapreduce/dfs.h"
#include "mapreduce/metrics.h"

namespace fj::join {

struct Stage1Result {
  /// Dfs file holding the ordering ("token<TAB>count", rank order).
  std::string ordering_file;
  /// Metrics of the 1 (OPTO) or 2 (BTO) jobs executed.
  std::vector<mr::JobMetrics> jobs;
};

/// Runs the configured stage-1 algorithm over `input_file` (record lines),
/// writing the ordering to `output_file`.
Result<Stage1Result> RunStage1(mr::Dfs* dfs, const std::string& input_file,
                               const std::string& output_file,
                               const JoinConfig& config);

}  // namespace fj::join
