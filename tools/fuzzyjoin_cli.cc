// fuzzyjoin — command-line front end to the library.
//
// Subcommands:
//   generate  --out=FILE --records=N [--kind=dblp|citeseerx] [--seed=S]
//             [--increase=n]                 synthesize a record file
//   selfjoin  --input=FILE --out=FILE [--tau=0.8] [--function=jaccard]
//             [--stage1=bto|opto] [--stage2=bk|pk] [--stage3=brj|oprj]
//             [--routing=individual|grouped] [--groups=N] [--qgram=Q]
//             (the algorithms default to JoinConfig's BTO-PK-OPRJ with
//             individual-token routing)
//             [--threads=N (0 = auto-detect)] [--sort_buffer=BYTES]
//             [--merge_factor=N]
//             [--max_attempts=4] [--speculate] [--speculation_factor=3]
//             [--fault_seed=S] [--fault_crash_p=P] [--fault_straggler_p=P]
//             [--fault_corrupt_p=P] (FaultPlan's defaults: a straggler
//             runs 4x slower, drawn faults hit only the first 2 attempts)
//             [--verify_integrity] [--max_skipped=N]
//             [--check_contracts[=0|1]] [--contract_sample_every=N]
//             [--codec=none|fjlz]
//             [--resume] [--dfs_dir=PATH]
//             [--stats]                      set-similarity self-join
//   rsjoin    --r=FILE --s=FILE --out=FILE [same tuning flags]
//   editjoin  --input=FILE --out=FILE --distance=D [--qgram=3]
//             edit-distance join over the join attribute strings
//
// Count flags take non-negative integers (else exit status 2); --threads
// is at most 1024, --map_tasks and --reduce_tasks at most 65536. An
// unknown flag, or a malformed number in any flag, is a usage error too
// (exit status 2, naming the flag).
//
// Record files are tab-separated "rid<TAB>title<TAB>authors<TAB>payload"
// lines (see data/record.h); join output files are JoinedPair lines (see
// fuzzyjoin/stage3.h).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>

#include "common/flags.h"
#include "common/latency_histogram.h"
#include "data/generator.h"
#include "data/increase.h"
#include "fuzzyjoin/fuzzyjoin.h"
#include "similarity/edit_distance.h"
#include "text/tokenizer.h"

namespace {

using fj::Flags;
using fj::Result;
using fj::Status;

// Prints `status` and returns `exit_code`: 2 for a usage error such as a
// bad flag, 1 for a run that failed.
int Fail(const Status& status, int exit_code = 1) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return exit_code;
}

Result<std::vector<std::string>> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(std::move(line));
  return lines;
}

Status WriteLines(const std::string& path,
                  const std::vector<std::string>& lines) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  for (const auto& line : lines) out << line << '\n';
  return Status::OK();
}

// Reads the choice flag `key`, spelled as one of `names`, into `*value`,
// which keeps its default when the flag is absent.
template <typename Enum>
Status GetChoice(const Flags& flags, const std::string& key,
                 std::initializer_list<std::pair<const char*, Enum>> names,
                 Enum* value) {
  if (!flags.Has(key)) return Status::OK();
  const std::string given = flags.GetString(key, "");
  for (const auto& [name, choice] : names) {
    if (given == name) {
      *value = choice;
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown --" + key + ": " + given);
}

// Every algorithm flag defaults to JoinConfig's own default.
Result<fj::join::JoinConfig> ConfigFromFlags(const Flags& flags) {
  using namespace fj::join;  // the algorithm enums
  JoinConfig config;
  config.tau = flags.GetDouble("tau", config.tau);
  const std::string function = flags.GetString("function", "jaccard");
  auto parsed_function = fj::sim::SimilarityFunctionFromName(function);
  if (!parsed_function.ok()) {
    return Status::InvalidArgument("unknown --function: " + function);
  }
  config.function = *parsed_function;
  FJ_RETURN_IF_ERROR(GetChoice(flags, "stage1",
                               {{"bto", Stage1Algorithm::kBTO},
                                {"opto", Stage1Algorithm::kOPTO}},
                               &config.stage1));
  FJ_RETURN_IF_ERROR(GetChoice(
      flags, "stage2",
      {{"bk", Stage2Algorithm::kBK}, {"pk", Stage2Algorithm::kPK}},
      &config.stage2));
  FJ_RETURN_IF_ERROR(GetChoice(flags, "stage3",
                               {{"brj", Stage3Algorithm::kBRJ},
                                {"oprj", Stage3Algorithm::kOPRJ}},
                               &config.stage3));
  FJ_RETURN_IF_ERROR(
      GetChoice(flags, "routing",
                {{"individual", TokenRouting::kIndividualTokens},
                 {"grouped", TokenRouting::kGroupedTokens}},
                &config.routing));
  // Count flags keep JoinConfig's defaults when absent.
  FJ_RETURN_IF_ERROR(flags.GetCount("groups", &config.num_groups));
  FJ_RETURN_IF_ERROR(flags.GetCount("map_tasks", &config.num_map_tasks));
  FJ_RETURN_IF_ERROR(flags.GetCount("reduce_tasks", &config.num_reduce_tasks));
  FJ_RETURN_IF_ERROR(flags.GetCount("threads", &config.local_threads));
  FJ_RETURN_IF_ERROR(flags.GetCount("sort_buffer", &config.sort_buffer_bytes));
  FJ_RETURN_IF_ERROR(flags.GetCount("merge_factor", &config.merge_factor));
  FJ_RETURN_IF_ERROR(
      flags.GetCount("max_attempts", &config.max_task_attempts));
  config.speculative_execution = flags.Has("speculate");
  config.speculation_slowdown_factor =
      flags.GetDouble("speculation_factor", 3.0);
  config.verify_integrity = flags.Has("verify_integrity");
  // --check_contracts / --check_contracts=0 override the build-type
  // default (on in debug builds, off under NDEBUG).
  if (flags.Has("check_contracts")) {
    config.check_contracts = flags.GetInt("check_contracts", 1) != 0;
  }
  FJ_RETURN_IF_ERROR(flags.GetCount("contract_sample_every",
                                    &config.contract_sample_every));
  FJ_RETURN_IF_ERROR(GetChoice(flags, "codec",
                               {{"none", fj::mr::BlockCodec::kNone},
                                {"fjlz", fj::mr::BlockCodec::kFjlz}},
                               &config.block_codec));
  config.resume = flags.Has("resume");
  FJ_RETURN_IF_ERROR(
      flags.GetCount("max_skipped", &config.max_skipped_records));
  // Deterministic fault injection: any non-zero probability builds a
  // FaultPlan shared by every job of the pipeline. Joins still produce
  // byte-identical output as long as the plan is recoverable. Every fault
  // flag is read either way, so Flags::Check knows them all.
  const double crash_p = flags.GetDouble("fault_crash_p", 0.0);
  const double straggler_p = flags.GetDouble("fault_straggler_p", 0.0);
  const double corrupt_p = flags.GetDouble("fault_corrupt_p", 0.0);
  auto plan = std::make_shared<fj::mr::FaultPlan>();
  plan->seed = static_cast<uint64_t>(flags.GetInt("fault_seed", 1));
  plan->crash_probability = crash_p;
  plan->straggler_probability = straggler_p;
  plan->corrupt_probability = corrupt_p;
  if (crash_p > 0.0 || straggler_p > 0.0 || corrupt_p > 0.0) {
    if (!plan->RecoverableWith(config.max_task_attempts,
                               config.verify_integrity)) {
      return Status::InvalidArgument(
          corrupt_p > 0.0 && !config.verify_integrity
              ? "corruption injection without --verify_integrity is never "
                "recoverable (nothing detects the flipped bytes)"
              : "fault plan is not recoverable with --max_attempts=" +
                    std::to_string(config.max_task_attempts));
    }
    config.fault_plan = std::move(plan);
  }
  if (flags.Has("qgram")) {
    size_t q = 3;
    FJ_RETURN_IF_ERROR(flags.GetCount("qgram", &q));
    config.tokenizer = std::make_shared<fj::text::QGramTokenizer>(q);
  }
  FJ_RETURN_IF_ERROR(config.Validate());
  return config;
}

// Prints measurements and counts only: no cluster-model price.
void PrintStats(const fj::join::JoinRunResult& result) {
  std::fprintf(stderr, "stages:\n");
  for (const auto& stage : result.stages) {
    if (stage.resumed_from_checkpoint) {
      std::fprintf(stderr, "  %-12s resumed from checkpoint (0 jobs)\n",
                   stage.stage_name.c_str());
      continue;
    }
    double seconds = 0;
    uint64_t shuffle = 0;
    for (const auto& job : stage.jobs) {
      seconds += job.wall_seconds;
      shuffle += job.shuffle_bytes;
    }
    std::fprintf(stderr, "  %-12s %7.3fs  %9.1f KB shuffled  (%zu job%s)\n",
                 stage.stage_name.c_str(), seconds, shuffle / 1024.0,
                 stage.jobs.size(), stage.jobs.size() == 1 ? "" : "s");
    // Measured host-executor activity.
    {
      fj::ExecutorStats rt;
      double map_wall = 0, reduce_wall = 0;
      for (const auto& job : stage.jobs) {
        rt.tasks_executed += job.runtime.tasks_executed;
        rt.tasks_stolen += job.runtime.tasks_stolen;
        rt.busy_seconds += job.runtime.busy_seconds;
        rt.queue_delay_seconds += job.runtime.queue_delay_seconds;
        rt.workers = std::max(rt.workers, job.runtime.workers);
        map_wall += job.map_phase_wall_seconds;
        reduce_wall += job.reduce_phase_wall_seconds;
      }
      const double capacity = seconds * static_cast<double>(rt.workers);
      const double utilization =
          capacity > 0 ? 100.0 * rt.busy_seconds / capacity : 0.0;
      std::fprintf(stderr,
                   "    runtime: %zu worker%s, map %.3fs / reduce %.3fs "
                   "measured, %llu tasks (%llu stolen), %.0f%% utilized, "
                   "%.3fs queue delay\n",
                   rt.workers, rt.workers == 1 ? "" : "s", map_wall,
                   reduce_wall,
                   static_cast<unsigned long long>(rt.tasks_executed),
                   static_cast<unsigned long long>(rt.tasks_stolen),
                   utilization, rt.queue_delay_seconds);
    }
    // Per-task wall-time distribution: skew between p50 and max is the
    // straggler signal the paper's Stage 1 ordering is meant to shrink.
    {
      fj::LatencyHistogram map_tasks, reduce_tasks;
      for (const auto& job : stage.jobs) {
        for (const auto& task : job.map_tasks) map_tasks.Record(task.seconds);
        for (const auto& task : job.reduce_tasks) {
          reduce_tasks.Record(task.seconds);
        }
      }
      if (map_tasks.count() > 0) {
        std::fprintf(stderr, "    map tasks:    %s\n",
                     map_tasks.Summary().c_str());
      }
      if (reduce_tasks.count() > 0) {
        std::fprintf(stderr, "    reduce tasks: %s\n",
                     reduce_tasks.Summary().c_str());
      }
    }
    uint64_t attempts = 0, tasks = 0;
    uint64_t failed = 0, spec_launched = 0, spec_wins = 0;
    uint64_t verified = 0, corrupt = 0, skipped = 0, contract_checks = 0;
    uint64_t codec_logical = 0, codec_encoded = 0, spilled = 0;
    double wasted = 0;
    for (const auto& job : stage.jobs) {
      for (const auto& task : job.map_tasks) attempts += task.attempts;
      for (const auto& task : job.reduce_tasks) attempts += task.attempts;
      tasks += job.map_tasks.size() + job.reduce_tasks.size();
      failed += job.failed_attempts;
      spec_launched += job.speculative_launched;
      spec_wins += job.speculative_wins;
      verified += job.integrity_bytes_verified;
      corrupt += job.corruption_detected;
      skipped += job.records_skipped;
      contract_checks += job.contract_checks;
      codec_logical += job.codec_logical_bytes;
      codec_encoded += job.codec_encoded_bytes;
      spilled += job.spilled_bytes;
      wasted += job.wasted_task_seconds;
    }
    if (attempts > tasks || spec_launched > 0) {
      std::fprintf(stderr,
                   "    fault tolerance: %llu attempts for %llu tasks "
                   "(%llu failed), %llu backup%s (%llu won), %.3fs wasted\n",
                   static_cast<unsigned long long>(attempts),
                   static_cast<unsigned long long>(tasks),
                   static_cast<unsigned long long>(failed),
                   static_cast<unsigned long long>(spec_launched),
                   spec_launched == 1 ? "" : "s",
                   static_cast<unsigned long long>(spec_wins), wasted);
    }
    if (verified > 0) {
      std::fprintf(stderr,
                   "    integrity: %.1f KB verified, %llu corrupted attempt%s "
                   "detected and re-run\n",
                   verified / 1024.0, static_cast<unsigned long long>(corrupt),
                   corrupt == 1 ? "" : "s");
    }
    if (skipped > 0) {
      std::fprintf(stderr,
                   "    %llu malformed input record%s quarantined to "
                   "<output>.bad\n",
                   static_cast<unsigned long long>(skipped),
                   skipped == 1 ? "" : "s");
    }
    if (contract_checks > 0) {
      std::fprintf(stderr, "    contracts: %llu checks, clean\n",
                   static_cast<unsigned long long>(contract_checks));
    }
    if (codec_encoded > 0) {
      std::fprintf(stderr,
                   "    format: %.1f KB logical -> %.1f KB encoded (%.2fx), "
                   "%.1f KB spilled\n",
                   codec_logical / 1024.0, codec_encoded / 1024.0,
                   static_cast<double>(codec_logical) /
                       static_cast<double>(codec_encoded),
                   spilled / 1024.0);
    }
    for (const auto& job : stage.jobs) {
      for (const auto& [name, value] : job.counters.Snapshot()) {
        std::fprintf(stderr, "    %-40s %lld\n", name.c_str(),
                     static_cast<long long>(value));
      }
    }
  }
}

// --- optional on-disk Dfs state (--dfs_dir=PATH) ------------------------
//
// The Dfs is in-memory, so by default every CLI invocation starts from an
// empty file system and --resume has nothing to resume from. --dfs_dir
// persists the Dfs across invocations: each Dfs file becomes one regular
// file of newline-terminated lines inside the directory. The directory is
// owned by the tool — saving replaces its contents with the Dfs's current
// files.

Status LoadDfsDir(const std::string& dir, fj::mr::Dfs* dfs) {
  namespace fsys = std::filesystem;
  std::error_code ec;
  if (!fsys::exists(dir, ec)) return Status::OK();  // first invocation
  for (const auto& entry : fsys::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    FJ_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                        ReadLines(entry.path().string()));
    FJ_RETURN_IF_ERROR(dfs->WriteFile(name, std::move(lines)));
  }
  if (ec) return Status::IOError("cannot list " + dir + ": " + ec.message());
  return Status::OK();
}

Status SaveDfsDir(const std::string& dir, const fj::mr::Dfs& dfs) {
  namespace fsys = std::filesystem;
  std::error_code ec;
  fsys::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());
  // Drop files deleted from the Dfs (e.g. stale outputs cleared before a
  // stage re-ran) so the next load does not resurrect them.
  for (const auto& entry : fsys::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() &&
        !dfs.Exists(entry.path().filename().string())) {
      fsys::remove(entry.path(), ec);
    }
  }
  for (const std::string& name : dfs.ListFiles()) {
    auto lines = dfs.ReadFile(name);
    if (!lines.ok()) return lines.status();
    FJ_RETURN_IF_ERROR(WriteLines(dir + "/" + name, *lines.value()));
  }
  return Status::OK();
}

int Generate(const Flags& flags) {
  std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out=FILE is required\n");
    return 2;
  }
  uint64_t records = 10000;
  size_t factor = 1;
  Status counts = flags.GetCount("records", &records);
  if (counts.ok()) counts = flags.GetCount("increase", &factor);
  if (!counts.ok()) return Fail(counts, 2);
  uint64_t seed = flags.GetInt("seed", 42);
  std::string kind = flags.GetString("kind", "dblp");
  if (Status checked = flags.Check(); !checked.ok()) return Fail(checked, 2);
  fj::data::GeneratorConfig config;
  if (kind == "dblp") {
    config = fj::data::DblpLikeConfig(records, seed);
  } else if (kind == "citeseerx") {
    config = fj::data::CiteseerxLikeConfig(records, seed);
  } else {
    std::fprintf(stderr, "generate: unknown --kind=%s\n", kind.c_str());
    return 2;
  }
  auto dataset = fj::data::GenerateRecords(config);
  if (factor > 1) {
    auto increased = fj::data::IncreaseDataset(dataset, factor);
    if (!increased.ok()) return Fail(increased.status());
    dataset = std::move(increased).value();
  }
  auto status = WriteLines(out, fj::data::RecordsToLines(dataset));
  if (!status.ok()) return Fail(status);
  std::fprintf(stderr, "wrote %zu records to %s\n", dataset.size(),
               out.c_str());
  return 0;
}

int SelfJoin(const Flags& flags) {
  std::string input = flags.GetString("input", "");
  std::string out = flags.GetString("out", "");
  const std::string dfs_dir = flags.GetString("dfs_dir", "");
  const bool stats = flags.Has("stats");
  if (input.empty() || out.empty()) {
    std::fprintf(stderr, "selfjoin: --input=FILE and --out=FILE required\n");
    return 2;
  }
  auto config = ConfigFromFlags(flags);
  if (!config.ok()) return Fail(config.status(), 2);
  if (Status checked = flags.Check(); !checked.ok()) return Fail(checked, 2);
  auto lines = ReadLines(input);
  if (!lines.ok()) return Fail(lines.status());
  fj::mr::Dfs dfs;
  if (!dfs_dir.empty()) {
    if (auto status = LoadDfsDir(dfs_dir, &dfs); !status.ok()) {
      return Fail(status);
    }
    // The local file is authoritative for the input; a stale copy loaded
    // from the state directory would shadow it.
    if (dfs.Exists("input")) (void)dfs.DeleteFile("input");
  }
  (void)dfs.WriteFile("input", std::move(lines).value());
  auto result = fj::join::RunSelfJoin(&dfs, "input", "join", *config);
  // Persist the Dfs even when the pipeline failed: the checkpoint manifest
  // of the committed stages is exactly what --resume needs next time.
  if (!dfs_dir.empty()) {
    if (auto status = SaveDfsDir(dfs_dir, dfs); !status.ok()) {
      return Fail(status);
    }
  }
  if (!result.ok()) return Fail(result.status());
  auto output = dfs.ReadFile(result->output_file);
  if (!output.ok()) return Fail(output.status());
  if (auto status = WriteLines(out, *output.value()); !status.ok()) {
    return Fail(status);
  }
  std::fprintf(stderr, "%zu joined pairs -> %s\n", output.value()->size(),
               out.c_str());
  if (stats) PrintStats(*result);
  return 0;
}

int RSJoin(const Flags& flags) {
  std::string r_path = flags.GetString("r", "");
  std::string s_path = flags.GetString("s", "");
  std::string out = flags.GetString("out", "");
  const std::string dfs_dir = flags.GetString("dfs_dir", "");
  const bool stats = flags.Has("stats");
  if (r_path.empty() || s_path.empty() || out.empty()) {
    std::fprintf(stderr, "rsjoin: --r=FILE --s=FILE --out=FILE required\n");
    return 2;
  }
  auto config = ConfigFromFlags(flags);
  if (!config.ok()) return Fail(config.status(), 2);
  if (Status checked = flags.Check(); !checked.ok()) return Fail(checked, 2);
  auto r_lines = ReadLines(r_path);
  auto s_lines = ReadLines(s_path);
  if (!r_lines.ok() || !s_lines.ok()) {
    std::fprintf(stderr, "cannot read inputs\n");
    return 1;
  }
  fj::mr::Dfs dfs;
  if (!dfs_dir.empty()) {
    if (auto status = LoadDfsDir(dfs_dir, &dfs); !status.ok()) {
      return Fail(status);
    }
    if (dfs.Exists("r")) (void)dfs.DeleteFile("r");
    if (dfs.Exists("s")) (void)dfs.DeleteFile("s");
  }
  (void)dfs.WriteFile("r", std::move(r_lines).value());
  (void)dfs.WriteFile("s", std::move(s_lines).value());
  auto result = fj::join::RunRSJoin(&dfs, "r", "s", "join", *config);
  if (!dfs_dir.empty()) {
    if (auto status = SaveDfsDir(dfs_dir, dfs); !status.ok()) {
      return Fail(status);
    }
  }
  if (!result.ok()) return Fail(result.status());
  auto output = dfs.ReadFile(result->output_file);
  if (!output.ok()) return Fail(output.status());
  if (auto status = WriteLines(out, *output.value()); !status.ok()) {
    return Fail(status);
  }
  std::fprintf(stderr, "%zu joined pairs -> %s\n", output.value()->size(),
               out.c_str());
  if (stats) PrintStats(*result);
  return 0;
}

int EditJoin(const Flags& flags) {
  std::string input = flags.GetString("input", "");
  std::string out = flags.GetString("out", "");
  if (input.empty() || out.empty()) {
    std::fprintf(stderr, "editjoin: --input=FILE and --out=FILE required\n");
    return 2;
  }
  size_t distance = 2;
  size_t q = 3;
  Status counts = flags.GetCount("distance", &distance);
  if (counts.ok()) counts = flags.GetCount("qgram", &q);
  if (counts.ok()) counts = flags.Check();
  if (!counts.ok()) return Fail(counts, 2);
  auto lines = ReadLines(input);
  if (!lines.ok()) return Fail(lines.status());
  auto records = fj::data::RecordsFromLines(*lines);
  if (!records.ok()) return Fail(records.status());
  std::vector<std::string> strings;
  strings.reserve(records->size());
  for (const auto& record : *records) {
    strings.push_back(record.JoinAttribute());
  }
  auto pairs = fj::sim::EditDistanceSelfJoin(strings, distance, q);
  std::vector<std::string> output;
  output.reserve(pairs.size());
  for (const auto& pair : pairs) {
    std::ostringstream line;
    line << (*records)[pair.index1].rid << '\t'
         << (*records)[pair.index2].rid << '\t' << pair.distance;
    output.push_back(line.str());
  }
  if (auto status = WriteLines(out, output); !status.ok()) return Fail(status);
  std::fprintf(stderr, "%zu pairs within edit distance %zu -> %s\n",
               pairs.size(), distance, out.c_str());
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: fuzzyjoin <generate|selfjoin|rsjoin|editjoin> "
               "[--flags]\n(see the header of tools/fuzzyjoin_cli.cc)\n");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.positional().empty()) {
    Usage();
    return 2;
  }
  const std::string& command = flags.positional()[0];
  if (command == "generate") return Generate(flags);
  if (command == "selfjoin") return SelfJoin(flags);
  if (command == "rsjoin") return RSJoin(flags);
  if (command == "editjoin") return EditJoin(flags);
  Usage();
  return 2;
}
