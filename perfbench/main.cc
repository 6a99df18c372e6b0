// perfbench: the end-to-end benchmark of the fuzzy-join system.
//
//   perfbench --workload self_dblp|rs_cite_spill|serve_read|serve_churn
//             --seed N --seconds S --trace 0|1
//             [--sort_buffer_scale X] [--corrupt_every N] [--trace_file F]
//
// Prints one JSON object as the last line of standard output (see
// perfbench/README.md). perfbench/run.py builds this binary and runs it.
#include <cstdio>
#include <string>

#include "report.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Options opts;
  if (!perfbench::ParseOptions(argc, argv, &opts)) return 2;
  perfbench::Tracer tracer(opts.trace);
  perfbench::Report report;
  bool ran = false;
  if (opts.workload == "self_dblp" || opts.workload == "rs_cite_spill") {
    ran = perfbench::RunBatch(opts, &tracer, &report);
  } else if (opts.workload == "serve_read" || opts.workload == "serve_churn") {
    ran = perfbench::RunServe(opts, &tracer, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 opts.workload.c_str());
    return 2;
  }
  if (!ran) {
    std::fprintf(stderr, "perfbench: workload %s did not run\n",
                 opts.workload.c_str());
    return 1;
  }
  if (tracer.enabled() && !opts.trace_file.empty() &&
      !tracer.WriteChromeJson(opts.trace_file)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 opts.trace_file.c_str());
    return 1;
  }
  return perfbench::PrintReport(report, opts.trace) ? 0 : 1;
}
