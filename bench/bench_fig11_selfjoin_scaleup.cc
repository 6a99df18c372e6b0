// Figure 11: self-join scaleup.
//
// Paper setup: dataset size and cluster size grown together — DBLP×5 on 2
// nodes up to DBLP×25 on 10 nodes; perfect scaleup = flat curve.
//
// Here: base×1 on 2 nodes up to base×5 on 10 nodes. Expected shape
// (paper): all three combinations scale up well; BTO-PK-BRJ scales best
// (OPRJ's broadcast list grows with the data, so BTO-PK-OPRJ degrades).
#include <cstdio>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace fj;
  bench::Flags flags(argc, argv);
  size_t base = flags.GetInt("base", 2000);
  size_t reps = flags.GetInt("reps", 5);
  double work_scale = flags.GetDouble("work_scale", bench::kDefaultWorkScale);
  bench::CheckFlagsOrExit(flags);

  bench::PrintExperimentHeader(
      "Figure 11", "self-join scaleup (data and cluster grown together)",
      "DBLP-like base " + std::to_string(base) +
          ", (nodes, factor) = (2,1) (4,2) (6,3) (8,4) (10,5)");

  const std::vector<std::pair<size_t, size_t>> points{
      {2, 1}, {4, 2}, {6, 3}, {8, 4}, {10, 5}};

  std::printf("%-14s", "nodes/factor");
  for (const auto& combo : bench::PaperCombos()) {
    std::printf(" %12s", combo.name);
  }
  std::printf("\n");

  std::vector<std::vector<double>> totals(bench::PaperCombos().size());
  std::vector<std::vector<double>> measured(bench::PaperCombos().size());
  for (const auto& [nodes, factor] : points) {
    mr::Dfs dfs;
    bench::PrepareSelfData(&dfs, "dblp", base, factor, 42);
    auto cluster = bench::MakeCluster(nodes, work_scale);
    std::printf("%2zu / x%-8zu", nodes, factor);
    for (size_t c = 0; c < bench::PaperCombos().size(); ++c) {
      const auto& combo = bench::PaperCombos()[c];
      auto config = bench::MakeConfig(combo, nodes);
      auto run = bench::RunSelfRepeated(
          &dfs, "dblp",
          std::string("f11-") + combo.name + "-" + std::to_string(nodes),
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
  std::printf("%-14s", "nodes/factor");
  for (const auto& combo : bench::PaperCombos()) {
    std::printf(" %12s", combo.name);
  }
  std::printf("\n");
  for (size_t i = 0; i < points.size(); ++i) {
    std::printf("%2zu / x%-8zu", points[i].first, points[i].second);
    for (size_t c = 0; c < measured.size(); ++c) {
      std::printf(" %11.3fs", measured[c][i]);
    }
    std::printf("\n");
  }

  std::printf("\npaper-shape checks (scaleup ratio = last/first; 1.0 = perfect):\n");
  double best_ratio = 1e9;
  std::string best_combo;
  for (size_t c = 0; c < totals.size(); ++c) {
    double ratio = totals[c].back() / totals[c].front();
    std::printf("  %s: %.2f\n", bench::PaperCombos()[c].name, ratio);
    if (ratio < best_ratio) {
      best_ratio = ratio;
      best_combo = bench::PaperCombos()[c].name;
    }
  }
  std::printf("  best scaleup: %s (paper: BTO-PK-BRJ)\n", best_combo.c_str());
  return 0;
}
