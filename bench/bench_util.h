// Shared machinery of the experiment binaries (one per paper table or
// figure — see DESIGN.md §4): flag parsing, dataset preparation, pipeline
// execution with cluster-shaped task counts, simulated-time extraction,
// and aligned table printing.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/flags.h"
#include "data/generator.h"
#include "data/increase.h"
#include "fuzzyjoin/fuzzyjoin.h"
#include "mapreduce/cluster_model.h"
#include "mapreduce/dfs.h"

namespace fj::bench {

/// --key=value command-line flags (see common/flags.h).
using Flags = ::fj::Flags;

/// Exits with status 2, naming the flag, when the command line holds a
/// flag that no getter read or a malformed number (Flags::Check). Every
/// bench calls it once it has read all its flags, before any work.
void CheckFlagsOrExit(const Flags& flags);

/// The three end-to-end combinations the paper evaluates.
struct Combo {
  join::Stage1Algorithm stage1;
  join::Stage2Algorithm stage2;
  join::Stage3Algorithm stage3;
  const char* name;
};

/// {BTO-BK-BRJ, BTO-PK-BRJ, BTO-PK-OPRJ}.
const std::vector<Combo>& PaperCombos();

/// Builds a JoinConfig for `combo` with task counts shaped like the
/// paper's Hadoop configuration on an `nodes`-node cluster (4 map + 4
/// reduce slots per node, ~2 map waves).
join::JoinConfig MakeConfig(const Combo& combo, size_t nodes);

/// Cluster model for `nodes` nodes with the experiment's work_scale.
mr::ClusterConfig MakeCluster(size_t nodes, double work_scale);

/// The default extrapolation from the local base dataset to the paper's
/// dataset sizes (see ClusterConfig::work_scale): the paper's DBLP×10 is
/// ~3000x the local base×2 dataset, and the C++ engine's per-record cost
/// is roughly an order of magnitude below Hadoop 0.20's.
inline constexpr double kDefaultWorkScale = 20000.0;

/// Writes a DBLP×factor-like dataset to `dfs` under `name`. Returns the
/// record count.
size_t PrepareSelfData(mr::Dfs* dfs, const std::string& name,
                       size_t base_records, size_t factor, uint64_t seed);

/// Writes DBLP×factor under `r_name` and CITESEERX×factor (with injected
/// cross-catalog overlap) under `s_name`.
void PrepareRSData(mr::Dfs* dfs, const std::string& r_name,
                   const std::string& s_name, size_t r_base, size_t s_base,
                   size_t factor, uint64_t seed);

/// Simulated per-stage + total seconds of a finished pipeline run.
struct StageTimes {
  double stage1 = 0;
  double stage2 = 0;
  double stage3 = 0;
  double total() const { return stage1 + stage2 + stage3; }
};

StageTimes Simulate(const join::JoinRunResult& result,
                    const mr::ClusterConfig& cluster);

/// MEASURED per-stage host wall seconds of a finished run (sums of the
/// jobs' wall_seconds) — the real-execution complement of Simulate.
StageTimes Measured(const join::JoinRunResult& result);

/// One repeated pipeline execution: per-stage element-wise minimum
/// simulated times across the repetitions (minimum-of-N strips scheduler /
/// allocator noise from the metered task costs — each local task runs only
/// micro- to milliseconds), plus the last run's full result for counters
/// and output files.
struct RepeatedRun {
  StageTimes times;              ///< element-wise min across reps
  StageTimes measured;           ///< measured host walls, min across reps
  join::JoinRunResult last_run;  ///< for counters / output inspection
};

/// Runs the self-join pipeline `reps` times (>= 1).
Result<RepeatedRun> RunSelfRepeated(mr::Dfs* dfs, const std::string& input,
                                    const std::string& prefix,
                                    const join::JoinConfig& config,
                                    const mr::ClusterConfig& cluster,
                                    size_t reps);

/// R-S variant of RunSelfRepeated.
Result<RepeatedRun> RunRSRepeated(mr::Dfs* dfs, const std::string& r,
                                  const std::string& s,
                                  const std::string& prefix,
                                  const join::JoinConfig& config,
                                  const mr::ClusterConfig& cluster,
                                  size_t reps);

/// Prints "== <figure/table id>: <title> ==" with the workload line.
void PrintExperimentHeader(const std::string& id, const std::string& title,
                           const std::string& workload);

}  // namespace fj::bench
