// Memory-pressure sweep of the sort-spill-merge shuffle.
//
// Hadoop bounds every map task's in-memory sort buffer (io.sort.mb, 100 MB
// in the paper's era) and spills sorted runs to local disk whenever it
// fills; the reduce side k-way merges the runs (io.sort.factor at a time).
// This bench sweeps JobSpec::sort_buffer_bytes across the full self-join
// pipeline and reports how shrinking the buffer trades memory for local
// disk traffic and merge passes — while the join output stays byte
// identical (verified against the unbounded run every row).
#include <algorithm>
#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace fj;
  bench::Flags flags(argc, argv);
  size_t base = flags.GetInt("base", 2000);
  size_t factor = flags.GetInt("factor", 2);
  size_t reps = flags.GetInt("reps", 3);
  size_t nodes = flags.GetInt("nodes", 10);
  double work_scale = flags.GetDouble("work_scale", bench::kDefaultWorkScale);
  bench::CheckFlagsOrExit(flags);

  bench::PrintExperimentHeader(
      "sort-spill-merge sweep",
      "self-join under shrinking map-side sort buffers",
      "DBLP-like base " + std::to_string(base) + " x" +
          std::to_string(factor) + ", BTO-PK-BRJ, " + std::to_string(nodes) +
          " nodes");

  mr::Dfs dfs;
  bench::PrepareSelfData(&dfs, "dblp", base, factor, 42);
  auto cluster = bench::MakeCluster(nodes, work_scale);

  // The local workload is the paper's shape at laptop scale: per-task
  // intermediate volume is KBs, not Hadoop's 100 MB, so the sweep spans
  // "never binds" down to "a handful of pairs per run".
  const uint64_t kBudgets[] = {0, 16 << 10, 2 << 10, 512, 128};

  std::printf("%-10s %8s %10s %8s %10s %9s %9s %6s\n", "buffer", "spills",
              "spill KB", "merges", "peak KB", "spill", "total", "same");
  const std::vector<std::string>* golden = nullptr;
  int run_id = 0;
  for (uint64_t budget : kBudgets) {
    auto config = bench::MakeConfig(bench::PaperCombos()[1], nodes);
    config.sort_buffer_bytes = budget;
    auto run = bench::RunSelfRepeated(&dfs, "dblp",
                                      "s" + std::to_string(run_id++), config,
                                      cluster, reps);
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 1;
    }

    uint64_t spills = 0, spilled_bytes = 0, merges = 0, peak = 0;
    double spill_seconds = 0;
    for (const auto& stage : run->last_run.stages) {
      for (const auto& job : stage.jobs) {
        spills += job.spill_count;
        spilled_bytes += job.spilled_bytes;
        merges += job.merge_passes;
        for (const auto& t : job.map_tasks) {
          peak = std::max(peak, t.peak_buffer_bytes);
        }
        spill_seconds += mr::SimulateJob(job, cluster).spill_seconds;
      }
    }

    auto lines = dfs.ReadFile(run->last_run.output_file);
    if (!lines.ok()) {
      std::fprintf(stderr, "%s\n", lines.status().ToString().c_str());
      return 1;
    }
    bool same = true;
    if (golden == nullptr) {
      golden = lines.value();  // budget 0 runs first: the reference
    } else {
      same = *lines.value() == *golden;
    }

    char label[32];
    if (budget == 0) {
      std::snprintf(label, sizeof label, "unbounded");
    } else if (budget >= 1024) {
      std::snprintf(label, sizeof label, "%llu KB",
                    static_cast<unsigned long long>(budget >> 10));
    } else {
      std::snprintf(label, sizeof label, "%llu B",
                    static_cast<unsigned long long>(budget));
    }
    std::printf("%-10s %8llu %10.1f %8llu %10.1f %8.2fs %8.1fs %6s\n", label,
                static_cast<unsigned long long>(spills),
                spilled_bytes / 1024.0,
                static_cast<unsigned long long>(merges), peak / 1024.0,
                spill_seconds, run->times.total(),
                same ? "yes" : "NO");
  }

  std::printf(
      "\npaper-shape checks:\n"
      "  smaller buffers -> more spills, more local-disk traffic, deeper\n"
      "  merges, bounded peak memory; the join result never changes.\n");
  return 0;
}
