#include "bench_util.h"

#include <cstdio>
#include <cstdlib>

namespace fj::bench {

void CheckFlagsOrExit(const Flags& flags) {
  if (Status checked = flags.Check(); !checked.ok()) {
    std::fprintf(stderr, "%s\n", checked.ToString().c_str());
    std::exit(2);
  }
}

const std::vector<Combo>& PaperCombos() {
  static const std::vector<Combo> combos = {
      {join::Stage1Algorithm::kBTO, join::Stage2Algorithm::kBK,
       join::Stage3Algorithm::kBRJ, "BTO-BK-BRJ"},
      {join::Stage1Algorithm::kBTO, join::Stage2Algorithm::kPK,
       join::Stage3Algorithm::kBRJ, "BTO-PK-BRJ"},
      {join::Stage1Algorithm::kBTO, join::Stage2Algorithm::kPK,
       join::Stage3Algorithm::kOPRJ, "BTO-PK-OPRJ"},
  };
  return combos;
}

join::JoinConfig MakeConfig(const Combo& combo, size_t nodes) {
  join::JoinConfig config;
  config.stage1 = combo.stage1;
  config.stage2 = combo.stage2;
  config.stage3 = combo.stage3;
  // The paper runs 4 map and 4 reduce tasks per node; give the map phase
  // two waves of work so LPT has something to schedule.
  config.num_map_tasks = nodes * 4 * 2;
  config.num_reduce_tasks = nodes * 4;
  return config;
}

mr::ClusterConfig MakeCluster(size_t nodes, double work_scale) {
  mr::ClusterConfig cluster;
  cluster.nodes = nodes;
  cluster.map_slots_per_node = 4;
  cluster.reduce_slots_per_node = 4;
  cluster.work_scale = work_scale;
  return cluster;
}

size_t PrepareSelfData(mr::Dfs* dfs, const std::string& name,
                       size_t base_records, size_t factor, uint64_t seed) {
  auto base = data::GenerateRecords(data::DblpLikeConfig(base_records, seed));
  auto increased = data::IncreaseDataset(base, factor);
  if (!increased.ok()) {
    std::fprintf(stderr, "increase failed: %s\n",
                 increased.status().ToString().c_str());
    std::exit(1);
  }
  auto status = dfs->WriteFile(name, data::RecordsToLines(*increased));
  if (!status.ok()) {
    std::fprintf(stderr, "dfs write failed: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  return increased->size();
}

void PrepareRSData(mr::Dfs* dfs, const std::string& r_name,
                   const std::string& s_name, size_t r_base, size_t s_base,
                   size_t factor, uint64_t seed) {
  auto r_records = data::GenerateRecords(data::DblpLikeConfig(r_base, seed));
  auto s_records =
      data::GenerateRecords(data::CiteseerxLikeConfig(s_base, seed + 1));
  data::InjectOverlap(r_records, 0.30, /*max_edits=*/1, seed + 2, &s_records);

  // One shared token order for both relations, so every shifted copy
  // reproduces the base R-S matches (see data/increase.h).
  auto status = data::IncreaseDatasetsTogether(&r_records, &s_records, factor);
  if (!status.ok()) {
    std::fprintf(stderr, "increase failed: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  if (!dfs->WriteFile(r_name, data::RecordsToLines(r_records)).ok() ||
      !dfs->WriteFile(s_name, data::RecordsToLines(s_records)).ok()) {
    std::fprintf(stderr, "dfs write failed\n");
    std::exit(1);
  }
}

namespace {

void FoldMin(StageTimes* acc, const StageTimes& sample, bool first) {
  if (first) {
    *acc = sample;
    return;
  }
  acc->stage1 = std::min(acc->stage1, sample.stage1);
  acc->stage2 = std::min(acc->stage2, sample.stage2);
  acc->stage3 = std::min(acc->stage3, sample.stage3);
}

}  // namespace

Result<RepeatedRun> RunSelfRepeated(mr::Dfs* dfs, const std::string& input,
                                    const std::string& prefix,
                                    const join::JoinConfig& config,
                                    const mr::ClusterConfig& cluster,
                                    size_t reps) {
  if (reps == 0) reps = 1;
  Result<RepeatedRun> out = Status::Internal("no runs");
  StageTimes min_times;
  StageTimes min_measured;
  for (size_t rep = 0; rep < reps; ++rep) {
    auto result = join::RunSelfJoin(
        dfs, input, prefix + ".rep" + std::to_string(rep), config);
    if (!result.ok()) return result.status();  // e.g. OPRJ OOM
    FoldMin(&min_times, Simulate(*result, cluster), rep == 0);
    FoldMin(&min_measured, Measured(*result), rep == 0);
    if (rep + 1 == reps) {
      out = RepeatedRun{min_times, min_measured, std::move(result).value()};
    }
  }
  return out;
}

Result<RepeatedRun> RunRSRepeated(mr::Dfs* dfs, const std::string& r,
                                  const std::string& s,
                                  const std::string& prefix,
                                  const join::JoinConfig& config,
                                  const mr::ClusterConfig& cluster,
                                  size_t reps) {
  if (reps == 0) reps = 1;
  Result<RepeatedRun> out = Status::Internal("no runs");
  StageTimes min_times;
  StageTimes min_measured;
  for (size_t rep = 0; rep < reps; ++rep) {
    auto result = join::RunRSJoin(dfs, r, s,
                                  prefix + ".rep" + std::to_string(rep),
                                  config);
    if (!result.ok()) return result.status();
    FoldMin(&min_times, Simulate(*result, cluster), rep == 0);
    FoldMin(&min_measured, Measured(*result), rep == 0);
    if (rep + 1 == reps) {
      out = RepeatedRun{min_times, min_measured, std::move(result).value()};
    }
  }
  return out;
}

StageTimes Simulate(const join::JoinRunResult& result,
                    const mr::ClusterConfig& cluster) {
  StageTimes times;
  times.stage1 = result.SimulatedStageSeconds(0, cluster);
  times.stage2 = result.SimulatedStageSeconds(1, cluster);
  times.stage3 = result.SimulatedStageSeconds(2, cluster);
  return times;
}

StageTimes Measured(const join::JoinRunResult& result) {
  StageTimes times;
  double* stages[] = {&times.stage1, &times.stage2, &times.stage3};
  for (size_t i = 0; i < result.stages.size() && i < 3; ++i) {
    for (const auto& job : result.stages[i].jobs) {
      *stages[i] += job.wall_seconds;
    }
  }
  return times;
}

void PrintExperimentHeader(const std::string& id, const std::string& title,
                           const std::string& workload) {
  std::printf("================================================================\n");
  std::printf("%s: %s\n", id.c_str(), title.c_str());
  std::printf("workload: %s\n", workload.c_str());
  std::printf("(simulated cluster seconds; shapes comparable to the paper,\n");
  std::printf(" absolute values depend on the work_scale extrapolation)\n");
  std::printf("================================================================\n");
}

}  // namespace fj::bench
