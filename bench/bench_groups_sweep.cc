// Section 6.1.1 group-count study (stage 2, PK kernel).
//
// The paper evaluated the PK kernel with different numbers of token
// groups and observed the best performance with ONE GROUP PER TOKEN
// (individual routing): grouping tokens more coarsely makes the framework
// spend the same grouping effort while the reducer benefits less (and the
// groups get bigger). This binary sweeps the group count and reports the
// kernel's simulated time plus the shuffle/grouping metrics that explain
// it.
#include <cstdio>
#include <vector>

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
      "Section 6.1.1", "effect of the number of token groups (PK kernel)",
      "DBLP-like base " + std::to_string(base) + " x" +
          std::to_string(factor) + ", " + std::to_string(nodes) + " nodes");

  mr::Dfs dfs;
  bench::PrepareSelfData(&dfs, "dblp", base, factor, 42);
  auto cluster = bench::MakeCluster(nodes, work_scale);

  struct Row {
    std::string label;
    join::TokenRouting routing;
    uint32_t groups;
    join::GroupAssignment assignment = join::GroupAssignment::kRoundRobin;
  };
  std::vector<Row> rows{
      {"16 groups", join::TokenRouting::kGroupedTokens, 16},
      {"64 groups", join::TokenRouting::kGroupedTokens, 64},
      {"256 groups", join::TokenRouting::kGroupedTokens, 256},
      {"1024 groups", join::TokenRouting::kGroupedTokens, 1024},
      {"one-per-token", join::TokenRouting::kIndividualTokens, 0},
      // The paper picks round-robin assignment "to balance the sum of
      // token frequencies across groups"; contiguous ranges are the
      // unbalanced alternative.
      {"64 contiguous", join::TokenRouting::kGroupedTokens, 64,
       join::GroupAssignment::kContiguous},
  };

  std::printf("%-14s %10s %14s %14s %12s\n", "grouping", "stage2",
              "shuffle recs", "pk candidates", "pk verified");
  double individual_time = 0, best_grouped_time = 1e18;
  double rr64_time = 0, contiguous64_time = 0;
  for (const auto& row : rows) {
    auto config = bench::MakeConfig(bench::PaperCombos()[2], nodes);
    config.routing = row.routing;
    config.num_groups = row.groups;
    config.group_assignment = row.assignment;
    auto run = bench::RunSelfRepeated(&dfs, "dblp", "groups-" + row.label,
                                      config, cluster, reps);
    if (!run.ok()) {
      std::printf("%-14s FAILED: %s\n", row.label.c_str(),
                  run.status().ToString().c_str());
      continue;
    }
    const auto& kernel_job = run->last_run.stages[1].jobs[0];
    std::printf("%-14s %9.1fs %14llu %14lld %12lld\n", row.label.c_str(),
                run->times.stage2,
                static_cast<unsigned long long>(kernel_job.shuffle_records),
                static_cast<long long>(
                    kernel_job.counters.Get("stage2.pk.candidates")),
                static_cast<long long>(
                    kernel_job.counters.Get("stage2.pk.verified")));
    if (row.routing == join::TokenRouting::kIndividualTokens) {
      individual_time = run->times.stage2;
    } else if (row.assignment == join::GroupAssignment::kContiguous) {
      contiguous64_time = run->times.stage2;
    } else {
      best_grouped_time = std::min(best_grouped_time, run->times.stage2);
      if (row.groups == 64) rr64_time = run->times.stage2;
    }
  }

  std::printf("\npaper-shape checks:\n");
  std::printf("  one-group-per-token %.1fs vs best grouped %.1fs "
              "(paper: one group per token is best)\n",
              individual_time, best_grouped_time);
  std::printf("  64 groups: round-robin %.1fs vs contiguous %.1fs "
              "(paper: round-robin balances the frequency sum)\n",
              rr64_time, contiguous64_time);
  return 0;
}
