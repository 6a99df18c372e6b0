// Figure 14: R-S join scaleup.
//
// Paper setup: DBLP×n ⋈ CITESEERX×n with the cluster grown in proportion
// (2 nodes/×5 ... 10 nodes/×25). Expected shape (paper): BTO-BK-BRJ and
// BTO-PK-BRJ scale up well, BTO-PK-BRJ best; BTO-PK-OPRJ is fastest until
// it runs out of memory loading the RID-pair list (at the 8-node/×20
// point in the paper).
#include <cstdio>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace fj;
  bench::Flags flags(argc, argv);
  size_t r_base = flags.GetInt("r_base", 1500);
  size_t s_base = flags.GetInt("s_base", 1200);
  size_t reps = flags.GetInt("reps", 5);
  uint64_t oprj_limit = flags.GetInt("oprj_limit", 0);  // 0 = auto
  double work_scale = flags.GetDouble("work_scale", bench::kDefaultWorkScale);
  bench::CheckFlagsOrExit(flags);

  bench::PrintExperimentHeader(
      "Figure 14", "R-S join scaleup (data and cluster grown together)",
      "DBLP-like " + std::to_string(r_base) + " x n  JOIN  CITESEERX-like " +
          std::to_string(s_base) +
          " x n, (nodes, n) = (2,1) (4,2) (6,3) (8,4) (10,5)");

  const std::vector<std::pair<size_t, size_t>> points{
      {2, 1}, {4, 2}, {6, 3}, {8, 4}, {10, 5}};
  if (oprj_limit == 0) {
    // Auto budget: binds from the 8-node/x4 point on, mirroring the
    // paper's OOM at its 8-node/x20 point.
    oprj_limit = 50 * r_base * 3;
  }

  std::printf("%-14s", "nodes/factor");
  for (const auto& combo : bench::PaperCombos()) {
    std::printf(" %12s", combo.name);
  }
  std::printf("\n");

  std::vector<std::vector<double>> totals(bench::PaperCombos().size());
  std::vector<std::vector<double>> measured(bench::PaperCombos().size());
  bool oprj_oom_seen = false;
  for (const auto& [nodes, factor] : points) {
    mr::Dfs dfs;
    bench::PrepareRSData(&dfs, "dblp", "citeseerx", r_base, s_base, factor,
                         42);
    auto cluster = bench::MakeCluster(nodes, work_scale);
    std::printf("%2zu / x%-8zu", nodes, factor);
    for (size_t c = 0; c < bench::PaperCombos().size(); ++c) {
      const auto& combo = bench::PaperCombos()[c];
      auto config = bench::MakeConfig(combo, nodes);
      config.oprj_memory_limit_bytes = oprj_limit;
      auto run = bench::RunRSRepeated(
          &dfs, "dblp", "citeseerx",
          std::string("f14-") + combo.name + "-" + std::to_string(nodes),
          config, cluster, reps);
      if (!run.ok()) {
        if (run.status().code() == StatusCode::kResourceExhausted) {
          std::printf(" %12s", "OOM");
          oprj_oom_seen = true;
        } else {
          std::printf(" %12s", "FAILED");
        }
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

  std::printf("\n[measured] host wall-clock seconds (min of %zu reps; "
              "0 = OOM/failed)\n", reps);
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

  std::printf("\npaper-shape checks:\n");
  for (size_t c = 0; c < 2; ++c) {  // the two BRJ combos complete everywhere
    std::printf("  %s scaleup ratio: %.2f (1.0 = perfect)\n",
                bench::PaperCombos()[c].name,
                totals[c].back() / totals[c].front());
  }
  std::printf("  BTO-PK-OPRJ ran out of memory at a later point: %s "
              "(paper: yes, 8 nodes/x20)\n",
              oprj_oom_seen ? "yes" : "NO");
  return 0;
}
