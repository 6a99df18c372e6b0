// Table 1: per-stage self-join running time on different cluster sizes.
//
// Paper setup: DBLP×10, clusters of 2/4/8/10 nodes; each stage's
// alternatives timed separately — BTO vs OPTO (stage 1), BK vs PK
// (stage 2), BRJ vs OPRJ (stage 3).
//
// Expected shape (paper): OPTO competitive or faster on small clusters but
// BTO wins at 8-10 nodes (OPTO funnels everything through one reducer);
// PK beats BK everywhere; OPRJ beats BRJ at this data size, but its
// broadcast-load cost stays constant as nodes grow.
#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace fj;
  bench::Flags flags(argc, argv);
  size_t base = flags.GetInt("base", 2000);
  size_t factor = flags.GetInt("factor", 2);
  size_t reps = flags.GetInt("reps", 5);
  double work_scale = flags.GetDouble("work_scale", bench::kDefaultWorkScale);
  bench::CheckFlagsOrExit(flags);

  bench::PrintExperimentHeader(
      "Table 1", "running time of each stage on different cluster sizes",
      "DBLP-like base " + std::to_string(base) + " x" +
          std::to_string(factor) + " fixed");

  mr::Dfs dfs;
  bench::PrepareSelfData(&dfs, "dblp", base, factor, 42);

  const std::vector<size_t> node_counts{2, 4, 8, 10};

  // Two complementary combos cover all six per-stage algorithms.
  struct Variant {
    bench::Combo combo;
  };
  std::vector<bench::Combo> combos{
      {join::Stage1Algorithm::kBTO, join::Stage2Algorithm::kBK,
       join::Stage3Algorithm::kBRJ, "BTO-BK-BRJ"},
      {join::Stage1Algorithm::kOPTO, join::Stage2Algorithm::kPK,
       join::Stage3Algorithm::kOPRJ, "OPTO-PK-OPRJ"},
  };

  // row key: (stage, algorithm name) -> per-node-count seconds.
  std::map<std::pair<int, std::string>, std::vector<double>> rows;
  for (size_t nodes : node_counts) {
    auto cluster = bench::MakeCluster(nodes, work_scale);
    for (const auto& combo : combos) {
      auto config = bench::MakeConfig(combo, nodes);
      auto run = bench::RunSelfRepeated(
          &dfs, "dblp",
          std::string("t1-") + combo.name + "-" + std::to_string(nodes),
          config, cluster, reps);
      if (!run.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", combo.name,
                     run.status().ToString().c_str());
        return 1;
      }
      rows[{1, join::Stage1Name(combo.stage1)}].push_back(run->times.stage1);
      rows[{2, join::Stage2Name(combo.stage2)}].push_back(run->times.stage2);
      rows[{3, join::Stage3Name(combo.stage3)}].push_back(run->times.stage3);
    }
  }

  std::printf("%-6s %-6s", "stage", "alg");
  for (size_t nodes : node_counts) std::printf("  %5zu nodes", nodes);
  std::printf("\n");
  for (const auto& [key, times] : rows) {
    std::printf("%-6d %-6s", key.first, key.second.c_str());
    for (double t : times) std::printf("  %9.1fs", t);
    std::printf("\n");
  }

  std::printf("\npaper-shape checks:\n");
  auto last = [&](int stage, const std::string& alg) {
    return rows[{stage, alg}].back();
  };
  auto first = [&](int stage, const std::string& alg) {
    return rows[{stage, alg}].front();
  };
  std::printf("  stage 1 at 10 nodes: BTO %.1fs vs OPTO %.1fs (paper: BTO wins)\n",
              last(1, "BTO"), last(1, "OPTO"));
  std::printf("  stage 2 at 10 nodes: PK %.1fs vs BK %.1fs (paper: PK wins)\n",
              last(2, "PK"), last(2, "BK"));
  std::printf("  stage 3 at 10 nodes: OPRJ %.1fs vs BRJ %.1fs (paper: OPRJ wins at this size)\n",
              last(3, "OPRJ"), last(3, "BRJ"));
  std::printf("  kernel speedup 2->10 nodes: BK %.2fx, PK %.2fx (paper: both near-ideal)\n",
              first(2, "BK") / last(2, "BK"), first(2, "PK") / last(2, "PK"));
  std::printf("  OPRJ speedup 2->10 nodes: %.2fx (paper: limited, broadcast cost constant)\n",
              first(3, "OPRJ") / last(3, "OPRJ"));
  return 0;
}
