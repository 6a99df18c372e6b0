// Table 2: per-stage self-join scaleup.
//
// Paper setup: the Figure 11 axis — (2 nodes, ×5) ... (10 nodes, ×25) —
// with each stage algorithm reported separately.
//
// Expected shape (paper): BTO scales almost perfectly while OPTO degrades
// and eventually loses to BTO (single aggregation reducer); PK always
// beats BK and scales better (BK's reducer is quadratic in the growing
// group size); BRJ scales almost perfectly while OPRJ degrades (its
// broadcast RID-pair list grows with the data).
#include <cstdio>
#include <map>
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
      "Table 2", "per-stage scaleup (data and cluster grown together)",
      "DBLP-like base " + std::to_string(base) +
          ", (nodes, factor) = (2,1) (4,2) (8,4) (10,5)");

  const std::vector<std::pair<size_t, size_t>> points{
      {2, 1}, {4, 2}, {8, 4}, {10, 5}};

  std::vector<bench::Combo> combos{
      {join::Stage1Algorithm::kBTO, join::Stage2Algorithm::kBK,
       join::Stage3Algorithm::kBRJ, "BTO-BK-BRJ"},
      {join::Stage1Algorithm::kOPTO, join::Stage2Algorithm::kPK,
       join::Stage3Algorithm::kOPRJ, "OPTO-PK-OPRJ"},
  };

  std::map<std::pair<int, std::string>, std::vector<double>> rows;
  for (const auto& [nodes, factor] : points) {
    mr::Dfs dfs;
    bench::PrepareSelfData(&dfs, "dblp", base, factor, 42);
    auto cluster = bench::MakeCluster(nodes, work_scale);
    for (const auto& combo : combos) {
      auto config = bench::MakeConfig(combo, nodes);
      auto run = bench::RunSelfRepeated(
          &dfs, "dblp",
          std::string("t2-") + combo.name + "-" + std::to_string(nodes),
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
  for (const auto& [nodes, factor] : points) {
    std::printf("   %2zu/x%zu    ", nodes, factor);
  }
  std::printf("\n");
  for (const auto& [key, times] : rows) {
    std::printf("%-6d %-6s", key.first, key.second.c_str());
    for (double t : times) std::printf("  %9.1fs", t);
    std::printf("\n");
  }

  std::printf("\npaper-shape checks (scaleup ratio = last/first; 1.0 = perfect):\n");
  for (const auto& [key, times] : rows) {
    std::printf("  stage %d %-5s: %.2f\n", key.first, key.second.c_str(),
                times.back() / times.front());
  }
  auto& bto = rows[{1, "BTO"}];
  auto& opto = rows[{1, "OPTO"}];
  auto& brj = rows[{3, "BRJ"}];
  auto& oprj = rows[{3, "OPRJ"}];
  std::printf("  BTO scales better than OPTO: %s (paper: yes)\n",
              bto.back() / bto.front() < opto.back() / opto.front() ? "yes"
                                                                    : "NO");
  std::printf("  BRJ scales better than OPRJ: %s (paper: yes)\n",
              brj.back() / brj.front() < oprj.back() / oprj.front() ? "yes"
                                                                    : "NO");
  return 0;
}
