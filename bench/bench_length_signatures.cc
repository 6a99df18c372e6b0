// Footnote 2 ablation: prefix-token signatures vs length-range signatures
// for stage 2 (self-join, BK kernel).
//
// The paper: "An alternative would be to apply the length filter. We
// explored this alternative but the performance was not good because it
// suffered from the skewed distribution of string lengths." This bench
// reproduces that comparison: length-only routing concentrates whole
// length classes on single reducers and — with no prefix filter — must
// consider every same-class pair, so its candidate count and its slowest
// reducer blow up relative to token routing.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace fj;
  bench::Flags flags(argc, argv);
  size_t base = flags.GetInt("base", 2000);
  size_t factor = flags.GetInt("factor", 2);
  size_t nodes = flags.GetInt("nodes", 10);
  size_t reps = flags.GetInt("reps", 5);
  double work_scale = flags.GetDouble("work_scale", bench::kDefaultWorkScale);
  bench::CheckFlagsOrExit(flags);

  bench::PrintExperimentHeader(
      "Footnote 2 ablation", "prefix-token vs length-range signatures (BK)",
      "DBLP-like base " + std::to_string(base) + " x" +
          std::to_string(factor) + ", " + std::to_string(nodes) + " nodes");

  mr::Dfs dfs;
  bench::PrepareSelfData(&dfs, "dblp", base, factor, 42);
  auto cluster = bench::MakeCluster(nodes, work_scale);

  struct Row {
    std::string label;
    join::TokenRouting routing;
    uint32_t width;
  };
  std::vector<Row> rows{
      {"prefix tokens", join::TokenRouting::kIndividualTokens, 0},
      {"length w=1", join::TokenRouting::kLengthSignatures, 1},
      {"length w=2", join::TokenRouting::kLengthSignatures, 2},
      {"length w=4", join::TokenRouting::kLengthSignatures, 4},
  };

  std::printf("%-14s %9s %14s %14s %13s\n", "signatures", "stage2",
              "candidates", "slowest task", "max/avg task");
  for (const auto& row : rows) {
    auto config = bench::MakeConfig(bench::PaperCombos()[0], nodes);  // BK
    config.routing = row.routing;
    config.length_class_width = row.width == 0 ? 4 : row.width;
    auto run = bench::RunSelfRepeated(&dfs, "dblp", "sig-" + row.label,
                                      config, cluster, reps);
    if (!run.ok()) {
      std::printf("%-14s FAILED: %s\n", row.label.c_str(),
                  run.status().ToString().c_str());
      continue;
    }
    const auto& job = run->last_run.stages[1].jobs[0];
    double slowest = 0, total = 0;
    for (const auto& task : job.reduce_tasks) {
      slowest = std::max(slowest, task.seconds);
      total += task.seconds;
    }
    double avg = job.reduce_tasks.empty()
                     ? 0
                     : total / static_cast<double>(job.reduce_tasks.size());
    std::printf("%-14s %8.1fs %14lld %12.4fs %13.1f\n", row.label.c_str(),
                run->times.stage2,
                static_cast<long long>(
                    job.counters.Get("stage2.bk.pairs_considered")),
                slowest,
                avg > 0 ? slowest / avg : 0.0);
  }

  std::printf("\nexpected shape (paper): length signatures are much slower — "
              "no prefix filter, so\nfar more candidate pairs, and length "
              "skew concentrates work on few reducers\n(high max/avg task "
              "ratio).\n");
  return 0;
}
