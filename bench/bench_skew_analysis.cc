// Section 6.1.1, "Stage 3: Record Join" — the data-skew analysis.
//
// The paper explains BRJ's limited speedup by measuring (on DBLP×10):
//   * how often each RID appears in joining pairs: average 3.74,
//     standard deviation 14.85, maximum 187 — a long-tailed distribution
//     where one RID's pairs cannot be split across reducers;
//   * records processed per reduce instance (10 nodes): min 81,662 /
//     max 90,560 / avg 87,166.55 / stddev 2,519.30 — mild imbalance, but
//     "all the reducers had to wait for the slowest one to finish".
//
// This bench reproduces both measurements on the scaled-down workload.
#include <cmath>
#include <cstdio>
#include <map>

#include "bench_util.h"

namespace {

struct Distribution {
  double average = 0;
  double stddev = 0;
  int64_t min = 0;
  int64_t max = 0;
};

Distribution Describe(const std::vector<int64_t>& values) {
  Distribution d;
  if (values.empty()) return d;
  d.min = d.max = values[0];
  double sum = 0;
  for (int64_t v : values) {
    sum += static_cast<double>(v);
    d.min = std::min(d.min, v);
    d.max = std::max(d.max, v);
  }
  d.average = sum / static_cast<double>(values.size());
  double variance = 0;
  for (int64_t v : values) {
    double delta = static_cast<double>(v) - d.average;
    variance += delta * delta;
  }
  d.stddev = std::sqrt(variance / static_cast<double>(values.size()));
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fj;
  bench::Flags flags(argc, argv);
  size_t base = flags.GetInt("base", 2000);
  size_t factor = flags.GetInt("factor", 2);
  size_t nodes = flags.GetInt("nodes", 10);
  bench::CheckFlagsOrExit(flags);

  bench::PrintExperimentHeader(
      "Section 6.1.1 (stage-3 skew)",
      "RID-pair frequency distribution and reduce-task balance",
      "DBLP-like base " + std::to_string(base) + " x" +
          std::to_string(factor) + ", " + std::to_string(nodes) + " nodes");

  mr::Dfs dfs;
  bench::PrepareSelfData(&dfs, "dblp", base, factor, 42);
  auto config = bench::MakeConfig(bench::PaperCombos()[1], nodes);  // BRJ
  auto result = join::RunSelfJoin(&dfs, "dblp", "skew", config);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  // (a) RID -> number of joining pairs it appears in.
  std::map<uint64_t, int64_t> rid_frequency;
  auto pair_lines = dfs.ReadFile(result->rid_pairs_file).value();
  std::map<std::pair<uint64_t, uint64_t>, bool> seen;
  for (const auto& line : *pair_lines) {
    auto parsed = join::ParseRidPairLine(line);
    if (!parsed.ok()) continue;
    auto [rid1, rid2, sim] = parsed.value();
    (void)sim;
    if (!seen.emplace(std::make_pair(rid1, rid2), true).second) continue;
    rid_frequency[rid1]++;
    rid_frequency[rid2]++;
  }
  std::vector<int64_t> frequencies;
  frequencies.reserve(rid_frequency.size());
  for (const auto& [rid, count] : rid_frequency) {
    frequencies.push_back(count);
  }
  auto rid_dist = Describe(frequencies);
  std::printf("RID join-pair frequency (over %zu RIDs in >= 1 pair):\n",
              frequencies.size());
  std::printf("  average %.2f, stddev %.2f, max %lld\n", rid_dist.average,
              rid_dist.stddev, static_cast<long long>(rid_dist.max));
  std::printf("  (paper, DBLP x10: average 3.74, stddev 14.85, max 187 — a "
              "long-tailed distribution)\n\n");

  // (b) Records processed per reduce task in the BRJ phases.
  const auto& stage3 = result->stages[2];
  for (size_t phase = 0; phase < stage3.jobs.size(); ++phase) {
    std::vector<int64_t> inputs;
    for (const auto& task : stage3.jobs[phase].reduce_tasks) {
      inputs.push_back(static_cast<int64_t>(task.input_records));
    }
    auto d = Describe(inputs);
    std::printf("BRJ phase %zu reduce-task input records (%zu tasks):\n",
                phase + 1, inputs.size());
    std::printf("  min %lld, max %lld, avg %.2f, stddev %.2f  (max/avg "
                "%.2f)\n",
                static_cast<long long>(d.min),
                static_cast<long long>(d.max), d.average, d.stddev,
                d.average > 0 ? d.max / d.average : 0.0);
  }
  std::printf("  (paper, phase totals at 10 nodes: min 81662, max 90560, "
              "avg 87166.55, stddev 2519.30;\n   the slowest reducer gates "
              "the stage — the cause of BRJ's limited speedup)\n");
  return 0;
}
