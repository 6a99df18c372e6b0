// The one-stage, full-record alternative (Section 2.2).
//
// The paper considers replacing stages 2 and 3 with a single stage whose
// key-value pairs carry COMPLETE RECORDS instead of (RID, token-set)
// projections: reducers verify candidates and emit joined record pairs
// directly, and a small follow-up job deduplicates pairs produced by
// multiple reducers. The authors implemented it, found it much slower, and
// dropped it — we implement it so that comparison can be reproduced
// (bench_one_stage): replicating whole records through the shuffle
// multiplies the network volume by the record payload, which projections
// never pay.
#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "fuzzyjoin/config.h"
#include "fuzzyjoin/driver.h"
#include "mapreduce/dfs.h"

namespace fj::join {

/// Runs: stage 1 (token ordering) exactly as the normal pipeline, then the
/// full-record kernel job, then the deduplication job. Produces the same
/// JoinedPair output file as RunSelfJoin.
///
/// The config fields it honours:
///   - stage 1: stage1, use_stage1_combiner, tokenizer;
///   - the predicate: function, tau;
///   - routing: routing, num_groups, group_assignment — the kernel mapper
///     projects and routes through stage 2's mapper base, so a record goes
///     to the reduce tasks its projection would go to (length-signature
///     routing sends every record to one group);
///   - the job shape: num_map_tasks, num_reduce_tasks;
///   - every mr::EngineOptions field, which both jobs inherit from the
///     config (threads and executor, sort buffer, fault tolerance and
///     speculation, integrity and contract checks, skipped-record cap,
///     record format and block codec).
/// Ignored: stage2 (the kernel is always PPJoin+), stage3, block
/// processing, bk_length_routing, length_class_width,
/// oprj_memory_limit_bytes and resume (no manifest is written). The whole
/// point is that there is no stage 2/3 split.
Result<JoinRunResult> RunOneStageSelfJoin(mr::Dfs* dfs,
                                          const std::string& input_file,
                                          const std::string& output_prefix,
                                          const JoinConfig& config);

}  // namespace fj::join
