// Figure 8: self-join running time vs dataset size.
//
// Paper setup: DBLP×n (n = 5..25) on a 10-node cluster, Jaccard >= 0.80 on
// title+authors, three stage combinations (BTO-BK-BRJ, BTO-PK-BRJ,
// BTO-PK-OPRJ), reporting per-stage and total times.
//
// Here: DBLP-like base×factor (factor = 1..5 plays the role of ×5..×25),
// executed on the MapReduce simulator and timed on a simulated 10-node
// cluster. Expected shape (paper): stage 2 is the most expensive and grows
// fastest with size; BTO-PK-OPRJ is the fastest combination end to end.
#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace fj;
  bench::Flags flags(argc, argv);
  size_t base = flags.GetInt("base", 2000);
  size_t max_factor = flags.GetInt("max_factor", 5);
  size_t nodes = flags.GetInt("nodes", 10);
  size_t reps = flags.GetInt("reps", 3);
  double work_scale = flags.GetDouble("work_scale", bench::kDefaultWorkScale);
  bench::CheckFlagsOrExit(flags);

  bench::PrintExperimentHeader(
      "Figure 8", "self-join running time vs dataset size",
      "DBLP-like base " + std::to_string(base) + " x factor 1.." +
          std::to_string(max_factor) + ", " + std::to_string(nodes) +
          " nodes, jaccard >= 0.80");

  std::printf("%-7s %-12s %9s %9s %9s %9s\n", "factor", "combo", "stage1",
              "stage2", "stage3", "total");

  auto cluster = bench::MakeCluster(nodes, work_scale);
  double best_total_largest = 0;
  std::string best_combo_largest;
  double stage2_first = 0, stage2_last = 0, stage1_first = 0, stage1_last = 0;

  for (size_t factor = 1; factor <= max_factor; ++factor) {
    mr::Dfs dfs;
    size_t records =
        bench::PrepareSelfData(&dfs, "dblp", base, factor, /*seed=*/42);
    for (const auto& combo : bench::PaperCombos()) {
      auto config = bench::MakeConfig(combo, nodes);
      auto run = bench::RunSelfRepeated(&dfs, "dblp",
                                        std::string("f8-") + combo.name +
                                            "-" + std::to_string(factor),
                                        config, cluster, reps);
      if (!run.ok()) {
        std::printf("%-7zu %-12s FAILED: %s\n", factor, combo.name,
                    run.status().ToString().c_str());
        continue;
      }
      const auto& times = run->times;
      std::printf("%-7zu %-12s %8.1fs %8.1fs %8.1fs %8.1fs\n", factor,
                  combo.name, times.stage1, times.stage2, times.stage3,
                  times.total());
      if (std::string(combo.name) == "BTO-PK-BRJ") {
        if (factor == 1) {
          stage1_first = times.stage1;
          stage2_first = times.stage2;
        }
        if (factor == max_factor) {
          stage1_last = times.stage1;
          stage2_last = times.stage2;
        }
      }
      if (factor == max_factor &&
          (best_combo_largest.empty() || times.total() < best_total_largest)) {
        best_total_largest = times.total();
        best_combo_largest = combo.name;
      }
    }
    std::printf("        (%zu records)\n", records);
  }

  std::printf("\npaper-shape checks:\n");
  std::printf("  fastest combo at largest factor: %s (paper: BTO-PK-OPRJ)\n",
              best_combo_largest.c_str());
  std::printf(
      "  stage-2 growth %0.1fx vs stage-1 growth %0.1fx over the sweep "
      "(paper: stage 2 grows fastest)\n",
      stage2_first > 0 ? stage2_last / stage2_first : 0,
      stage1_first > 0 ? stage1_last / stage1_first : 0);
  return 0;
}
