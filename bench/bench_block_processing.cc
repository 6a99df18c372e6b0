// Section 5 ablation: insufficient-memory block processing.
//
// Not a numbered paper figure — the paper describes the map-based and
// reduce-based strategies qualitatively. This bench quantifies the
// trade-off they imply: map-based replicates blocks through the shuffle
// (network cost grows with the block count) while reduce-based ships each
// projection once but re-reads blocks from the reducer's local disk; both
// cap reducer memory at roughly (group size / blocks).
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

  bench::PrintExperimentHeader(
      "Section 5 ablation", "block processing strategies (BK kernel)",
      "DBLP-like base " + std::to_string(base) + " x" +
          std::to_string(factor) + ", " + std::to_string(nodes) + " nodes");

  mr::Dfs dfs;
  bench::PrepareSelfData(&dfs, "dblp", base, factor, 42);
  auto cluster = bench::MakeCluster(nodes, work_scale);

  struct Row {
    std::string label;
    join::BlockProcessing strategy;
    uint32_t blocks;
  };
  std::vector<Row> rows{
      {"in-memory", join::BlockProcessing::kNone, 0},
      {"map-based/2", join::BlockProcessing::kMapBased, 2},
      {"map-based/4", join::BlockProcessing::kMapBased, 4},
      {"map-based/8", join::BlockProcessing::kMapBased, 8},
      {"reduce-based/2", join::BlockProcessing::kReduceBased, 2},
      {"reduce-based/4", join::BlockProcessing::kReduceBased, 4},
      {"reduce-based/8", join::BlockProcessing::kReduceBased, 8},
  };

  // Every strategy must find the in-memory run's result count (the first
  // row); an error or a different count fails the bench.
  bool failed = false;
  int64_t in_memory_results = -1;
  std::printf("%-15s %9s %13s %13s %13s %10s\n", "strategy", "stage2",
              "shuffle KB", "spill KB", "peak mem", "results");
  for (const auto& row : rows) {
    auto config = bench::MakeConfig(bench::PaperCombos()[0], nodes);  // BK
    config.block_processing = row.strategy;
    config.num_blocks = row.blocks;
    auto run = bench::RunSelfRepeated(&dfs, "dblp", "blocks-" + row.label,
                                      config, cluster, reps);
    if (!run.ok()) {
      std::printf("%-15s FAILED: %s\n", row.label.c_str(),
                  run.status().ToString().c_str());
      failed = true;
      continue;
    }
    const auto& kernel_job = run->last_run.stages[1].jobs[0];
    int64_t spilled = kernel_job.counters.Get("scratch.bytes_written") +
                      kernel_job.counters.Get("scratch.bytes_read");
    int64_t peak =
        row.strategy == join::BlockProcessing::kNone
            ? kernel_job.counters.Get("stage2.peak_group_records")
            : kernel_job.counters.Get("stage2.block.peak_memory_records");
    const int64_t results = kernel_job.counters.Get("stage2.bk.results");
    std::printf("%-15s %8.1fs %12.1f %12.1f %10lld %10lld\n",
                row.label.c_str(), run->times.stage2,
                kernel_job.shuffle_bytes / 1024.0, spilled / 1024.0,
                static_cast<long long>(peak), static_cast<long long>(results));
    if (row.strategy == join::BlockProcessing::kNone) {
      in_memory_results = results;
    } else if (results != in_memory_results) {
      std::printf("%-15s FAILED: %lld results, the in-memory run found %lld\n",
                  row.label.c_str(), static_cast<long long>(results),
                  static_cast<long long>(in_memory_results));
      failed = true;
    }
  }

  std::printf("\nexpected shape: more blocks -> lower peak memory; map-based "
              "pays in shuffle volume,\nreduce-based pays in local-disk "
              "traffic; all strategies produce the same result count.\n");
  return failed ? 1 : 0;
}
