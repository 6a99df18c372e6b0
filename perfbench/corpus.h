// Record -> token-set conversion shared by the workloads, done the way the
// pipeline does it: word tokens, a global ordering by increasing frequency
// (stage 1), and records projected onto sorted token ids (stage 2).
#pragma once

#include <vector>

#include "data/record.h"
#include "ppjoin/token_set.h"
#include "text/token_ordering.h"

namespace perfbench {

/// The stage-1 ordering of the join-attribute tokens of `records`.
fj::text::TokenOrdering OrderingOf(const std::vector<fj::data::Record>& records);

/// Token sets of `records` under `ordering`; records without tokens are
/// dropped. Tokens outside the ordering get out-of-dictionary ids, as for
/// relation S of an R-S join.
std::vector<fj::ppjoin::TokenSetRecord> TokenSets(
    const std::vector<fj::data::Record>& records,
    const fj::text::TokenOrdering& ordering);

}  // namespace perfbench
