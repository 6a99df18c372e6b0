// Contract-checking overhead sweep.
//
// The contract checker (JobSpec::check_contracts) proves the user-supplied
// comparators, partitioner, combiner, and reducer obey the MapReduce
// execution contract while the job runs — a broken comparator becomes a
// structured job failure instead of silently wrong (or nondeterministic)
// join output. The cost knob is JobSpec::contract_sample_every: every kth
// emitted key enters the axiom pool. This bench sweeps the sampling rate
// on the full self-join pipeline (BTO-PK-BRJ) and reports
//
//   * the simulated check seconds and the overhead fraction per rate —
//     the default rate (every 16th key) must stay under 10% overhead,
//     the bench FAILS otherwise;
//   * byte-identity: every checked run must match the checks-off golden
//     output exactly (checks may only meter, never change answers — the
//     bench FAILS otherwise).
//
// `--bench_json=PATH` writes the sweep as JSON (checked in as
// BENCH_contract.json at the repo root and smoke-tested by CI).
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

using namespace fj;

constexpr uint32_t kDefaultSampleEvery = 16;  // JobSpec default
constexpr double kMaxDefaultOverhead = 0.10;

struct Row {
  std::string label;
  bool check = false;
  uint32_t sample_every = 0;  // meaningless when !check
  double total_seconds = 0;
  double contract_seconds = 0;
  double overhead_fraction = 0;  // contract / (total - contract)
  uint64_t contract_checks = 0;
  bool output_identical = false;
};

struct SweepResult {
  std::vector<Row> rows;
  size_t records = 0;
};

void Accumulate(const join::JoinRunResult& result,
                const mr::ClusterConfig& cluster, Row* row) {
  for (const auto& stage : result.stages) {
    for (const auto& job : stage.jobs) {
      auto simulated = mr::SimulateJob(job, cluster);
      row->total_seconds += simulated.total();
      row->contract_seconds += simulated.contract_seconds;
      row->contract_checks += job.contract_checks;
    }
  }
  const double base = row->total_seconds - row->contract_seconds;
  row->overhead_fraction = base > 0 ? row->contract_seconds / base : 0.0;
}

Result<SweepResult> RunSweep(size_t base, size_t factor, size_t nodes,
                             double work_scale) {
  SweepResult sweep;
  mr::Dfs dfs;
  sweep.records = bench::PrepareSelfData(&dfs, "dblp", base, factor, 42);
  auto cluster = bench::MakeCluster(nodes, work_scale);

  int run_id = 0;
  std::vector<std::string> golden;
  auto run_one = [&](const std::string& label, bool check,
                     uint32_t sample_every) -> Status {
    auto config = bench::MakeConfig(bench::PaperCombos()[1], nodes);
    config.check_contracts = check;
    if (check) config.contract_sample_every = sample_every;

    Row row;
    row.label = label;
    row.check = check;
    row.sample_every = sample_every;

    FJ_ASSIGN_OR_RETURN(
        auto result,
        join::RunSelfJoin(&dfs, "dblp", "c" + std::to_string(run_id++),
                          config));
    Accumulate(result, cluster, &row);

    FJ_ASSIGN_OR_RETURN(const std::vector<std::string>* lines,
                        dfs.ReadFile(result.output_file));
    if (golden.empty()) {
      golden = *lines;  // the checks-off baseline runs first
      row.output_identical = true;
    } else {
      row.output_identical = *lines == golden;
    }
    sweep.rows.push_back(std::move(row));
    return Status::OK();
  };

  FJ_RETURN_IF_ERROR(run_one("off", false, 0));
  for (uint32_t k : {64u, kDefaultSampleEvery, 4u, 1u}) {
    FJ_RETURN_IF_ERROR(run_one("every-" + std::to_string(k), true, k));
  }
  return sweep;
}

void PrintTable(const SweepResult& sweep) {
  std::printf("%-10s %7s %8s %9s %9s %12s %6s\n", "plan", "sample", "total",
              "contract", "overhead", "checks", "same");
  for (const Row& row : sweep.rows) {
    std::printf("%-10s %7s %7.1fs %8.2fs %8.2f%% %12llu %6s\n",
                row.label.c_str(),
                row.check ? std::to_string(row.sample_every).c_str() : "-",
                row.total_seconds, row.contract_seconds,
                100.0 * row.overhead_fraction,
                static_cast<unsigned long long>(row.contract_checks),
                row.output_identical ? "yes" : "NO");
  }
  std::printf(
      "\npaper-shape checks:\n"
      "  check cost scales with the sampling rate (every key >> every\n"
      "  16th key), stays under %.0f%% of simulated time at the default\n"
      "  rate, and never changes a byte of the join output.\n",
      100.0 * kMaxDefaultOverhead);
}

int WriteJson(const SweepResult& sweep, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  out << "{\n  \"benchmark\": \"bench_contract\",\n"
      << "  \"records\": " << sweep.records << ",\n  \"plans\": [\n";
  bool first = true;
  for (const Row& row : sweep.rows) {
    if (!first) out << ",\n";
    first = false;
    out << "    {\"plan\": \"" << row.label << "\", \"check_contracts\": "
        << (row.check ? "true" : "false") << ", \"sample_every\": "
        << row.sample_every << ", \"simulated_seconds\": "
        << row.total_seconds << ", \"contract_seconds\": "
        << row.contract_seconds << ", \"contract_overhead_fraction\": "
        << row.overhead_fraction << ", \"contract_checks\": "
        << row.contract_checks << ", \"output_identical\": "
        << (row.output_identical ? "true" : "false") << "}";
  }
  out << "\n  ]\n}\n";
  std::printf("wrote %s (%zu plans)\n", path.c_str(), sweep.rows.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  size_t base = flags.GetInt("base", 2000);
  size_t factor = flags.GetInt("factor", 2);
  size_t nodes = flags.GetInt("nodes", 10);
  double work_scale = flags.GetDouble("work_scale", bench::kDefaultWorkScale);
  std::string json_path = flags.GetString("bench_json", "");
  bench::CheckFlagsOrExit(flags);

  bench::PrintExperimentHeader(
      "contract-check sweep",
      "comparator/partitioner/combiner contract checking overhead",
      "DBLP-like base " + std::to_string(base) + " x" +
          std::to_string(factor) + ", BTO-PK-BRJ, " + std::to_string(nodes) +
          " nodes");

  auto sweep = RunSweep(base, factor, nodes, work_scale);
  if (!sweep.ok()) {
    std::fprintf(stderr, "%s\n", sweep.status().ToString().c_str());
    return 1;
  }
  for (const Row& row : sweep->rows) {
    if (!row.output_identical) {
      std::fprintf(stderr,
                   "FATAL: %s changed the join output (checks must only "
                   "meter, never alter results)\n",
                   row.label.c_str());
      return 1;
    }
    if (row.check && row.sample_every == kDefaultSampleEvery &&
        row.overhead_fraction > kMaxDefaultOverhead) {
      std::fprintf(stderr,
                   "FATAL: %s overhead %.1f%% exceeds the %.0f%% budget at "
                   "the default sampling rate\n",
                   row.label.c_str(), 100.0 * row.overhead_fraction,
                   100.0 * kMaxDefaultOverhead);
      return 1;
    }
  }
  PrintTable(*sweep);
  if (!json_path.empty()) return WriteJson(*sweep, json_path);
  return 0;
}
