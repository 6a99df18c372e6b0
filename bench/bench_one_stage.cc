// Section 2.2 ablation: the one-stage, full-record alternative.
//
// The paper: "We implemented this alternative and noticed a much worse
// performance, so we do not consider this option in this paper." This
// bench reproduces that comparison — the three-stage projection pipeline
// vs the one-stage pipeline that shuffles complete records — reporting
// simulated time and kernel shuffle volume as the data grows.
#include <cstdio>

#include "bench_util.h"
#include "fuzzyjoin/one_stage.h"

int main(int argc, char** argv) {
  using namespace fj;
  bench::Flags flags(argc, argv);
  size_t base = flags.GetInt("base", 2000);
  size_t max_factor = flags.GetInt("max_factor", 3);
  size_t nodes = flags.GetInt("nodes", 10);
  size_t reps = flags.GetInt("reps", 3);
  double work_scale = flags.GetDouble("work_scale", bench::kDefaultWorkScale);
  bench::CheckFlagsOrExit(flags);

  bench::PrintExperimentHeader(
      "Section 2.2 ablation", "three-stage projections vs one-stage full records",
      "DBLP-like base " + std::to_string(base) + " x factor 1.." +
          std::to_string(max_factor) + ", " + std::to_string(nodes) +
          " nodes");

  auto cluster = bench::MakeCluster(nodes, work_scale);
  std::printf("%-7s %-12s %10s %16s\n", "factor", "pipeline", "total",
              "kernel shuffle");

  for (size_t factor = 1; factor <= max_factor; ++factor) {
    mr::Dfs dfs;
    bench::PrepareSelfData(&dfs, "dblp", base, factor, 42);

    auto config = bench::MakeConfig(bench::PaperCombos()[2], nodes);

    auto three = bench::RunSelfRepeated(&dfs, "dblp",
                                        "3stage-" + std::to_string(factor),
                                        config, cluster, reps);
    if (three.ok()) {
      std::printf("%-7zu %-12s %9.1fs %13.1f KB\n", factor, "three-stage",
                  three->times.total(),
                  three->last_run.stages[1].jobs[0].shuffle_bytes / 1024.0);
    }

    // One-stage runs, best of reps.
    double best_total = 0;
    uint64_t kernel_bytes = 0;
    bool ok = false;
    for (size_t rep = 0; rep < reps; ++rep) {
      auto one = join::RunOneStageSelfJoin(
          &dfs, "dblp",
          "1stage-" + std::to_string(factor) + "-" + std::to_string(rep),
          config);
      if (!one.ok()) {
        std::printf("%-7zu %-12s FAILED: %s\n", factor, "one-stage",
                    one.status().ToString().c_str());
        break;
      }
      double total = one->SimulatedSeconds(cluster);
      if (!ok || total < best_total) {
        best_total = total;
        kernel_bytes = one->stages[1].jobs[0].shuffle_bytes;
      }
      ok = true;
    }
    if (ok) {
      std::printf("%-7zu %-12s %9.1fs %13.1f KB\n", factor, "one-stage",
                  best_total, kernel_bytes / 1024.0);
    }
  }

  std::printf("\nexpected shape (paper): the one-stage variant shuffles the "
              "full record payloads\nthrough the kernel and is much slower "
              "end to end.\n");
  return 0;
}
