// Section 3.1.1 ablation: the stage-1 combiner.
//
// The paper: "To minimize the network traffic between the map and reduce
// functions, we use a combine function to aggregate the 1's output by the
// map function into partial counts." This bench runs stage 1 with and
// without the combiner and reports shuffle volume and simulated time. It
// also shows the paper's speedup caveat: with more nodes (more, smaller
// map tasks) each combiner sees less input, so the savings shrink.
#include <cstdio>

#include "bench_util.h"
#include "fuzzyjoin/stage1.h"

int main(int argc, char** argv) {
  using namespace fj;
  bench::Flags flags(argc, argv);
  size_t base = flags.GetInt("base", 2000);
  size_t factor = flags.GetInt("factor", 2);
  size_t reps = flags.GetInt("reps", 5);
  double work_scale = flags.GetDouble("work_scale", bench::kDefaultWorkScale);
  bench::CheckFlagsOrExit(flags);

  bench::PrintExperimentHeader(
      "Section 3.1.1 ablation", "stage-1 token counting with/without combiner",
      "DBLP-like base " + std::to_string(base) + " x" +
          std::to_string(factor) + ", BTO");

  mr::Dfs dfs;
  bench::PrepareSelfData(&dfs, "dblp", base, factor, 42);

  std::printf("%-7s %-9s %14s %14s %10s\n", "nodes", "combiner",
              "shuffle recs", "shuffle KB", "stage1");
  int run_id = 0;
  std::map<std::pair<size_t, bool>, double> ratios;
  for (size_t nodes : {2u, 10u}) {
    auto cluster = bench::MakeCluster(nodes, work_scale);
    for (bool combiner : {true, false}) {
      auto config = bench::MakeConfig(bench::PaperCombos()[0], nodes);
      config.use_stage1_combiner = combiner;
      double best_time = 0;
      mr::JobMetrics metrics;
      for (size_t rep = 0; rep < reps; ++rep) {
        auto result = join::RunStage1(
            &dfs, "dblp", "ord" + std::to_string(run_id++), config);
        if (!result.ok()) {
          std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
          return 1;
        }
        double t = mr::SimulatePipelineSeconds(result->jobs, cluster);
        if (rep == 0 || t < best_time) {
          best_time = t;
          metrics = result->jobs[0];
        }
      }
      std::printf("%-7zu %-9s %14llu %14.1f %9.1fs\n", nodes,
                  combiner ? "on" : "off",
                  static_cast<unsigned long long>(metrics.shuffle_records),
                  metrics.shuffle_bytes / 1024.0, best_time);
      ratios[{nodes, combiner}] = static_cast<double>(metrics.shuffle_records);
    }
  }

  std::printf("\npaper-shape checks:\n");
  double saving_2 = ratios[{2, false}] / std::max(1.0, ratios[{2, true}]);
  double saving_10 = ratios[{10, false}] / std::max(1.0, ratios[{10, true}]);
  std::printf("  shuffle-record reduction: %.1fx at 2 nodes, %.1fx at 10 "
              "nodes (paper: combiner helps,\n  but less with more nodes — "
              "each combiner sees less input)\n",
              saving_2, saving_10);
  return 0;
}
