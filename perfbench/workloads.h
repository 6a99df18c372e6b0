// The benchmark's workloads. Each runner sets up (several times, reporting
// the median set-up time), warms up, runs its timed section for
// opts.seconds, checks every operation's output, and fills `report` with
// the end-to-end metrics (untraced) or the per-layer metrics (traced).
// Returns false when the run could not be carried out at all.
#pragma once

#include "report.h"

namespace perfbench {

/// self_dblp and rs_cite_spill.
bool RunBatch(const Options& opts, Tracer* tracer, Report* report);

/// serve_read and serve_churn.
bool RunServe(const Options& opts, Tracer* tracer, Report* report);

}  // namespace perfbench
