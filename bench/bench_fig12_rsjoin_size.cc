// Figure 12: R-S join running time vs dataset size.
//
// Paper setup: DBLP×n ⋈ CITESEERX×n (n = 5..25) on 10 nodes. Stage 1 runs
// on DBLP only; stage 3 scans both datasets, and the much larger
// CITESEERX records make it the dominant stage at small n. At ×25 the
// OPRJ variant ran out of memory loading the RID-pair list, leaving BRJ
// as the only option.
//
// Here: base datasets with the paper's record-size ratio, factors 1..5;
// the OPRJ per-task memory budget is set so the largest factor exceeds it.
#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace fj;
  bench::Flags flags(argc, argv);
  size_t r_base = flags.GetInt("r_base", 1500);
  size_t s_base = flags.GetInt("s_base", 1200);
  size_t max_factor = flags.GetInt("max_factor", 5);
  size_t nodes = flags.GetInt("nodes", 10);
  size_t reps = flags.GetInt("reps", 3);
  uint64_t oprj_limit = flags.GetInt("oprj_limit", 0);  // 0 = auto
  double work_scale = flags.GetDouble("work_scale", bench::kDefaultWorkScale);
  bench::CheckFlagsOrExit(flags);

  bench::PrintExperimentHeader(
      "Figure 12", "R-S join running time vs dataset size",
      "DBLP-like " + std::to_string(r_base) + " x n  JOIN  CITESEERX-like " +
          std::to_string(s_base) + " x n, n = 1.." +
          std::to_string(max_factor) + ", " + std::to_string(nodes) +
          " nodes");

  auto cluster = bench::MakeCluster(nodes, work_scale);
  std::printf("%-7s %-12s %9s %9s %9s %9s\n", "factor", "combo", "stage1",
              "stage2", "stage3", "total");

  bool oprj_oom_seen = false;
  for (size_t factor = 1; factor <= max_factor; ++factor) {
    mr::Dfs dfs;
    bench::PrepareRSData(&dfs, "dblp", "citeseerx", r_base, s_base, factor,
                         /*seed=*/42);
    if (oprj_limit == 0) {
      // Auto budget: sized so only the largest factor's RID-pair list
      // exceeds it — mirroring the paper's out-of-memory point at x25.
      oprj_limit = 50 * r_base * (max_factor - 1);
    }
    for (const auto& combo : bench::PaperCombos()) {
      auto config = bench::MakeConfig(combo, nodes);
      config.oprj_memory_limit_bytes = oprj_limit;
      auto run = bench::RunRSRepeated(
          &dfs, "dblp", "citeseerx",
          std::string("f12-") + combo.name + "-" + std::to_string(factor),
          config, cluster, reps);
      if (!run.ok()) {
        if (run.status().code() == StatusCode::kResourceExhausted) {
          std::printf("%-7zu %-12s %9s (RID-pair list over the per-task "
                      "budget; paper: same at x25)\n",
                      factor, combo.name, "OOM");
          oprj_oom_seen = true;
        } else {
          std::printf("%-7zu %-12s FAILED: %s\n", factor, combo.name,
                      run.status().ToString().c_str());
        }
        continue;
      }
      std::printf("%-7zu %-12s %8.1fs %8.1fs %8.1fs %8.1fs\n", factor,
                  combo.name, run->times.stage1, run->times.stage2,
                  run->times.stage3, run->times.total());
    }
  }

  std::printf("\npaper-shape checks:\n");
  std::printf("  OPRJ hit its memory budget at the largest factor: %s "
              "(paper: yes, at x25)\n",
              oprj_oom_seen ? "yes" : "NO");
  return 0;
}
