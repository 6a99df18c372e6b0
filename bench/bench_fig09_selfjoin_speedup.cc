// Figures 9 and 10: self-join speedup.
//
// Paper setup: DBLP×10 fixed, cluster grown from 2 to 10 nodes; Figure 9
// reports absolute times per combination (with ideal-speedup guide lines),
// Figure 10 the relative speedup (2-node time / N-node time).
//
// Here: fixed DBLP-like base×factor dataset; for each simulated node count
// the pipeline re-runs with Hadoop-shaped task counts (4+4 slots per node)
// and is timed on the matching simulated cluster. Expected shape (paper):
// all three combinations speed up sub-linearly (single-reducer stage-1
// phases and OPRJ's per-task broadcast load do not parallelize);
// BTO-PK-OPRJ is fastest in every setting.
//
// Besides the simulated curves, the experiment reports the same table in
// MEASURED host wall-clock seconds.
#include <cstdio>
#include <string>
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
      "Figures 9 + 10", "self-join speedup (absolute and relative)",
      "DBLP-like base " + std::to_string(base) + " x" +
          std::to_string(factor) + " fixed, nodes 2..10");

  mr::Dfs dfs;
  bench::PrepareSelfData(&dfs, "dblp", base, factor, 42);

  std::vector<size_t> node_counts{2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<std::vector<double>> totals(bench::PaperCombos().size());
  std::vector<std::vector<double>> measured(bench::PaperCombos().size());

  std::printf("[Figure 9] absolute running time (simulated cluster seconds)\n");
  std::printf("%-7s", "nodes");
  for (const auto& combo : bench::PaperCombos()) {
    std::printf(" %12s", combo.name);
  }
  std::printf(" %12s\n", "ideal(PK-OPRJ)");

  for (size_t nodes : node_counts) {
    auto cluster = bench::MakeCluster(nodes, work_scale);
    std::printf("%-7zu", nodes);
    for (size_t c = 0; c < bench::PaperCombos().size(); ++c) {
      const auto& combo = bench::PaperCombos()[c];
      auto config = bench::MakeConfig(combo, nodes);
      auto run = bench::RunSelfRepeated(
          &dfs, "dblp",
          std::string("f9-") + combo.name + "-" + std::to_string(nodes),
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
    // Ideal: the 2-node time of the last combo scaled by 2/nodes.
    double ideal = totals.back().front() * 2.0 / static_cast<double>(nodes);
    std::printf(" %11.1fs\n", ideal);
  }

  // The same grid in real host seconds. The node count only reshapes the
  // task counts here (execution concurrency is the executor's), so this
  // column shows what the task-shape change alone costs the host.
  std::printf("\n[Figure 9, measured] host wall-clock seconds (min of %zu)\n",
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

  std::printf("\n[Figure 10] relative speedup (time at 2 nodes / time at N)\n");
  std::printf("%-7s", "nodes");
  for (const auto& combo : bench::PaperCombos()) {
    std::printf(" %12s", combo.name);
  }
  std::printf(" %12s\n", "ideal");
  for (size_t i = 0; i < node_counts.size(); ++i) {
    std::printf("%-7zu", node_counts[i]);
    for (size_t c = 0; c < totals.size(); ++c) {
      double speedup =
          totals[c][i] > 0 ? totals[c].front() / totals[c][i] : 0;
      std::printf(" %11.2fx", speedup);
    }
    std::printf(" %11.2fx\n", node_counts[i] / 2.0);
  }

  std::printf("\npaper-shape checks:\n");
  bool all_sublinear = true;
  for (size_t c = 0; c < totals.size(); ++c) {
    double final_speedup = totals[c].front() / totals[c].back();
    double ideal = node_counts.back() / 2.0;
    std::printf("  %s: %.2fx at %zu nodes (ideal %.1fx)\n",
                bench::PaperCombos()[c].name, final_speedup,
                node_counts.back(), ideal);
    if (final_speedup >= ideal) all_sublinear = false;
  }
  std::printf("  all combinations speed up sub-linearly: %s (paper: yes)\n",
              all_sublinear ? "yes" : "NO");
  return 0;
}
