// Figure 13: R-S join speedup.
//
// Paper setup: DBLP×10 ⋈ CITESEERX×10 fixed, nodes 2..10. Expected shape
// (paper): BTO-PK-OPRJ starts fastest but loses its lead by 10 nodes —
// every map task loads the full RID-pair list, a cost that does not
// shrink with the cluster — while the BRJ combinations speed up better.
#include <cstdio>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace fj;
  bench::Flags flags(argc, argv);
  size_t r_base = flags.GetInt("r_base", 1500);
  size_t s_base = flags.GetInt("s_base", 1200);
  size_t factor = flags.GetInt("factor", 2);
  size_t reps = flags.GetInt("reps", 5);
  double work_scale = flags.GetDouble("work_scale", bench::kDefaultWorkScale);
  bench::CheckFlagsOrExit(flags);

  bench::PrintExperimentHeader(
      "Figure 13", "R-S join speedup",
      "DBLP-like " + std::to_string(r_base) + " x" + std::to_string(factor) +
          "  JOIN  CITESEERX-like " + std::to_string(s_base) + " x" +
          std::to_string(factor) + " fixed, nodes 2..10");

  mr::Dfs dfs;
  bench::PrepareRSData(&dfs, "dblp", "citeseerx", r_base, s_base, factor, 42);

  const std::vector<size_t> node_counts{2, 4, 6, 8, 10};
  std::vector<std::vector<double>> totals(bench::PaperCombos().size());
  std::vector<std::vector<double>> measured(bench::PaperCombos().size());

  std::printf("%-7s", "nodes");
  for (const auto& combo : bench::PaperCombos()) {
    std::printf(" %12s", combo.name);
  }
  std::printf("\n");
  for (size_t nodes : node_counts) {
    auto cluster = bench::MakeCluster(nodes, work_scale);
    std::printf("%-7zu", nodes);
    for (size_t c = 0; c < bench::PaperCombos().size(); ++c) {
      const auto& combo = bench::PaperCombos()[c];
      auto config = bench::MakeConfig(combo, nodes);
      auto run = bench::RunRSRepeated(
          &dfs, "dblp", "citeseerx",
          std::string("f13-") + combo.name + "-" + std::to_string(nodes),
          config, cluster, reps);
      if (!run.ok()) {
        std::printf(" %12s", "FAILED");
        totals[c].push_back(0);
        measured[c].push_back(0);
        continue;
      }
      totals[c].push_back(run->times.total());
      measured[c].push_back(run->measured.total());
      std::printf(" %11.1fs", run->times.total());
    }
    std::printf("\n");
  }

  std::printf("\n[measured] host wall-clock seconds (min of %zu reps)\n",
              reps);
  std::printf("%-7s", "nodes");
  for (const auto& combo : bench::PaperCombos()) {
    std::printf(" %12s", combo.name);
  }
  std::printf("\n");
  for (size_t i = 0; i < node_counts.size(); ++i) {
    std::printf("%-7zu", node_counts[i]);
    for (size_t c = 0; c < measured.size(); ++c) {
      std::printf(" %11.3fs", measured[c][i]);
    }
    std::printf("\n");
  }

  std::printf("\nrelative speedup (2-node time / N-node time):\n");
  std::printf("%-7s", "nodes");
  for (const auto& combo : bench::PaperCombos()) {
    std::printf(" %12s", combo.name);
  }
  std::printf(" %12s\n", "ideal");
  for (size_t i = 0; i < node_counts.size(); ++i) {
    std::printf("%-7zu", node_counts[i]);
    for (auto& series : totals) {
      std::printf(" %11.2fx",
                  series[i] > 0 ? series.front() / series[i] : 0.0);
    }
    std::printf(" %11.2fx\n", node_counts[i] / 2.0);
  }

  std::printf("\npaper-shape checks:\n");
  // BRJ combos should gain more speedup than the OPRJ combo.
  double brj_speedup = totals[1].front() / totals[1].back();
  double oprj_speedup = totals[2].front() / totals[2].back();
  std::printf("  speedup 2->10 nodes: BTO-PK-BRJ %.2fx vs BTO-PK-OPRJ %.2fx "
              "(paper: BRJ variants speed up better)\n",
              brj_speedup, oprj_speedup);
  return 0;
}
