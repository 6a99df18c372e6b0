// Determinism under physical concurrency: the full three-stage pipeline
// must produce byte-identical output whether tasks execute on one host
// thread or several — fault-free AND under a fault plan with retries and
// speculative backups in flight, with and without a spill budget, with
// and without contract checking. This is the invariant the TSan CI job
// guards: attempt-scoped state means concurrent attempts share nothing
// but the (preserved) shuffle input and the injector's pure hash.
//
// Beyond output bytes, every COMMITTED counter must match: job counters,
// committed byte/record totals, and the committed per-task metrics.
// Wall-derived fields (seconds, speculation launches, executor runtime)
// are the only ones allowed to vary with the thread count.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "data/generator.h"
#include "fuzzyjoin/fuzzyjoin.h"

namespace fj::join {
namespace {

std::vector<std::string> SelfInputLines() {
  auto config = data::DblpLikeConfig(300, 17);
  config.payload_bytes = 24;
  return data::RecordsToLines(data::GenerateRecords(config));
}

std::vector<std::string> OuterInputLines() {
  auto config = data::CiteseerxLikeConfig(200, 31);
  config.payload_bytes = 24;
  return data::RecordsToLines(data::GenerateRecords(config));
}

struct Variant {
  bool faults = false;
  bool spill = false;
  bool contracts = false;
  mr::RecordFormat format = mr::RecordFormat::kText;
  mr::BlockCodec codec = mr::BlockCodec::kNone;

  std::string Name() const {
    std::string name;
    name += faults ? "faults" : "clean";
    name += spill ? "+spill" : "";
    name += contracts ? "+contracts" : "";
    if (format == mr::RecordFormat::kBinary) name += "+binary";
    if (codec == mr::BlockCodec::kFjlz) name += "+fjlz";
    return name;
  }
};

JoinConfig MakeConfig(size_t threads, const Variant& variant) {
  JoinConfig config;
  config.stage1 = Stage1Algorithm::kBTO;
  config.stage2 = Stage2Algorithm::kPK;
  config.stage3 = Stage3Algorithm::kBRJ;
  config.num_map_tasks = 4;
  config.num_reduce_tasks = 3;
  config.local_threads = threads;
  config.sort_buffer_bytes = variant.spill ? 512 : 0;
  config.check_contracts = variant.contracts;
  config.record_format = variant.format;
  config.block_codec = variant.codec;
  if (variant.faults) {
    auto plan = std::make_shared<mr::FaultPlan>();
    plan->seed = 5;
    plan->crash_probability = 0.5;
    plan->crash_after_records = 6;
    plan->crash_failing_attempts = 2;
    plan->straggler_probability = 0.3;
    plan->straggler_extra_seconds = 20.0;
    config.fault_plan = std::move(plan);
    config.speculative_execution = true;
  }
  return config;
}

const std::vector<std::string>& Lines(const mr::Dfs& dfs,
                                      const std::string& file) {
  auto lines = dfs.ReadFile(file);
  EXPECT_TRUE(lines.ok());
  return *lines.value();
}

// Every committed (thread-count-invariant) number of one pipeline run,
// flattened to text so a mismatch pinpoints the offending field. Wall
// times, speculation launches, and executor runtime stats are excluded
// by design — they measure the host, not the data.
std::string CommittedSignature(const JoinRunResult& result) {
  std::ostringstream out;
  for (const auto& stage : result.stages) {
    out << "stage " << stage.stage_name << "\n";
    for (const auto& job : stage.jobs) {
      out << " job " << job.job_name << " shuffle_bytes=" << job.shuffle_bytes
          << " map_output_bytes=" << job.map_output_bytes
          << " map_output_records=" << job.map_output_records
          << " shuffle_records=" << job.shuffle_records
          << " input_bytes=" << job.input_bytes
          << " spill_count=" << job.spill_count
          << " spilled_bytes=" << job.spilled_bytes
          << " merge_passes=" << job.merge_passes
          << " failed_attempts=" << job.failed_attempts
          << " corruption_detected=" << job.corruption_detected
          << " contract_checks=" << job.contract_checks
          << " records_skipped=" << job.records_skipped
          << " codec_logical_bytes=" << job.codec_logical_bytes
          << " codec_encoded_bytes=" << job.codec_encoded_bytes << "\n";
      for (const auto* tasks : {&job.map_tasks, &job.reduce_tasks}) {
        for (const auto& task : *tasks) {
          out << "  task input_records=" << task.input_records
              << " input_bytes=" << task.input_bytes
              << " output_records=" << task.output_records
              << " output_bytes=" << task.output_bytes
              << " shuffle_records=" << task.shuffle_records
              << " shuffle_bytes=" << task.shuffle_bytes
              << " spill_count=" << task.spill_count
              << " spilled_bytes=" << task.spilled_bytes
              << " peak_buffer_bytes=" << task.peak_buffer_bytes
              << " merge_passes=" << task.merge_passes
              << " failed_attempts=" << task.failed_attempts
              << " corruption_detected=" << task.corruption_detected
              << " contract_checks=" << task.contract_checks << "\n";
        }
      }
      for (const auto& [name, value] : job.counters.Snapshot()) {
        out << "  counter " << name << "=" << value << "\n";
      }
    }
  }
  return out.str();
}

TEST(ConcurrencyDeterminismTest, SelfJoinThreadCountInvariant) {
  const Variant variants[] = {
      {false, false, false},
      {true, false, false},
      {false, true, false},
      {false, false, true},
      {true, true, true},
      {false, false, false, mr::RecordFormat::kBinary},
      {false, true, false, mr::RecordFormat::kBinary, mr::BlockCodec::kFjlz},
      {true, true, true, mr::RecordFormat::kBinary, mr::BlockCodec::kFjlz},
  };
  for (const Variant& variant : variants) {
    mr::Dfs dfs;
    ASSERT_TRUE(dfs.WriteFile("records", SelfInputLines()).ok());
    auto serial =
        RunSelfJoin(&dfs, "records", "serial", MakeConfig(1, variant));
    ASSERT_TRUE(serial.ok())
        << variant.Name() << ": " << serial.status().ToString();
    const std::string serial_signature = CommittedSignature(*serial);

    for (size_t threads : {2, 8}) {
      const std::string prefix = "threaded" + std::to_string(threads);
      auto threaded =
          RunSelfJoin(&dfs, "records", prefix, MakeConfig(threads, variant));
      ASSERT_TRUE(threaded.ok())
          << variant.Name() << ": " << threaded.status().ToString();

      EXPECT_EQ(Lines(dfs, serial->output_file),
                Lines(dfs, threaded->output_file))
          << variant.Name() << " threads=" << threads;
      EXPECT_EQ(Lines(dfs, serial->ordering_file),
                Lines(dfs, threaded->ordering_file))
          << variant.Name() << " threads=" << threads;
      EXPECT_EQ(Lines(dfs, serial->rid_pairs_file),
                Lines(dfs, threaded->rid_pairs_file))
          << variant.Name() << " threads=" << threads;
      EXPECT_EQ(serial_signature, CommittedSignature(*threaded))
          << variant.Name() << " threads=" << threads;
    }
  }
}

TEST(ConcurrencyDeterminismTest, RSJoinThreadCountInvariant) {
  const Variant variants[] = {
      {false, false, false},
      {true, true, false},
      {true, true, false, mr::RecordFormat::kBinary, mr::BlockCodec::kFjlz},
  };
  for (const Variant& variant : variants) {
    mr::Dfs dfs;
    ASSERT_TRUE(dfs.WriteFile("r", SelfInputLines()).ok());
    ASSERT_TRUE(dfs.WriteFile("s", OuterInputLines()).ok());
    auto serial = RunRSJoin(&dfs, "r", "s", "serial", MakeConfig(1, variant));
    ASSERT_TRUE(serial.ok())
        << variant.Name() << ": " << serial.status().ToString();
    const std::string serial_signature = CommittedSignature(*serial);

    for (size_t threads : {2, 8}) {
      const std::string prefix = "threaded" + std::to_string(threads);
      auto threaded =
          RunRSJoin(&dfs, "r", "s", prefix, MakeConfig(threads, variant));
      ASSERT_TRUE(threaded.ok())
          << variant.Name() << ": " << threaded.status().ToString();

      EXPECT_EQ(Lines(dfs, serial->output_file),
                Lines(dfs, threaded->output_file))
          << variant.Name() << " threads=" << threads;
      EXPECT_EQ(Lines(dfs, serial->rid_pairs_file),
                Lines(dfs, threaded->rid_pairs_file))
          << variant.Name() << " threads=" << threads;
      EXPECT_EQ(serial_signature, CommittedSignature(*threaded))
          << variant.Name() << " threads=" << threads;
    }
  }
}

// The record format changes HOW spill runs are represented, never WHAT
// the join produces: the final .joined output
// must be byte-identical across every format x codec combination,
// threaded or not, faulted or not.
TEST(ConcurrencyDeterminismTest, OutputInvariantAcrossFormatsAndCodecs) {
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", SelfInputLines()).ok());
  const Variant baseline{false, false, false};
  auto text = RunSelfJoin(&dfs, "records", "text", MakeConfig(1, baseline));
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  const std::vector<std::string> expected = Lines(dfs, text->output_file);
  ASSERT_FALSE(expected.empty());

  const Variant variants[] = {
      {false, false, false, mr::RecordFormat::kBinary},
      {false, false, false, mr::RecordFormat::kBinary, mr::BlockCodec::kFjlz},
      {true, true, false, mr::RecordFormat::kBinary, mr::BlockCodec::kFjlz},
  };
  size_t run = 0;
  for (const Variant& variant : variants) {
    for (size_t threads : {1, 4}) {
      const std::string prefix = "fmt" + std::to_string(run++);
      auto result = RunSelfJoin(&dfs, "records", prefix,
                                MakeConfig(threads, variant));
      ASSERT_TRUE(result.ok())
          << variant.Name() << ": " << result.status().ToString();
      EXPECT_EQ(expected, Lines(dfs, result->output_file))
          << variant.Name() << " threads=" << threads;
    }
  }
}

// Every committed Dfs file of the run named `prefix`, keyed by its name
// without the prefix, with its whole-file checksum. The manifest is left
// out: its fingerprint folds the format and codec on purpose.
std::map<std::string, uint64_t> StageFileChecksums(const mr::Dfs& dfs,
                                                   const std::string& prefix) {
  std::map<std::string, uint64_t> files;
  for (const std::string& name : dfs.ListFiles()) {
    if (name.rfind(prefix + ".", 0) != 0 || name == prefix + ".manifest") {
      continue;
    }
    files[name.substr(prefix.size())] = dfs.FileChecksum(name).value();
  }
  return files;
}

// Every stage file is text lines: record_format and block_codec choose
// only how spill runs are encoded, so each committed file of a join has
// the same checksum under text and under binary+fjlz.
TEST(ConcurrencyDeterminismTest, StageFilesInvariantAcrossFormatsAndCodecs) {
  struct Case {
    const char* name;
    bool rs;
    JoinConfig config;
    std::vector<std::string> expected_files;
  };
  const Case cases[] = {
      {"spilling BTO-PK-BRJ R-S join", true,
       MakeConfig(2, Variant{false, true, false}),
       {".joined", ".joined.halves", ".ordering", ".ordering.counts",
        ".ridpairs"}},
      {"default self-join", false, JoinConfig{},
       {".joined", ".ordering", ".ordering.counts", ".ridpairs"}},
  };
  // S shares a quarter of R's records (one edit each), so the R-S join
  // finds pairs.
  auto r_config = data::DblpLikeConfig(300, 17);
  r_config.payload_bytes = 24;
  const std::vector<data::Record> r = data::GenerateRecords(r_config);
  auto s_config = data::CiteseerxLikeConfig(200, 31);
  s_config.payload_bytes = 24;
  std::vector<data::Record> s = data::GenerateRecords(s_config);
  data::InjectOverlap(r, 0.25, /*max_edits=*/1, 29, &s);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<std::map<std::string, uint64_t>> files;
    for (const auto& [format, codec] :
         {std::pair{mr::RecordFormat::kText, mr::BlockCodec::kNone},
          std::pair{mr::RecordFormat::kBinary, mr::BlockCodec::kFjlz}}) {
      mr::Dfs dfs;
      ASSERT_TRUE(dfs.WriteFile("r", data::RecordsToLines(r)).ok());
      ASSERT_TRUE(dfs.WriteFile("s", data::RecordsToLines(s)).ok());
      JoinConfig config = c.config;
      config.record_format = format;
      config.block_codec = codec;
      auto result = c.rs ? RunRSJoin(&dfs, "r", "s", "out", config)
                         : RunSelfJoin(&dfs, "r", "out", config);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      uint64_t encoded = 0;
      for (const auto& stage : result->stages) {
        for (const auto& job : stage.jobs) encoded += job.codec_encoded_bytes;
      }
      // Binary runs really were encoded; text runs never are.
      EXPECT_EQ(encoded > 0, format == mr::RecordFormat::kBinary);
      EXPECT_GT(Lines(dfs, result->output_file).size(), 10u);
      files.push_back(StageFileChecksums(dfs, "out"));
    }
    std::vector<std::string> names;
    for (const auto& [name, checksum] : files[0]) names.push_back(name);
    EXPECT_EQ(names, c.expected_files);
    EXPECT_EQ(files[0], files[1]);
  }
}

// `--local_threads 0` (auto-detect) must behave exactly like any explicit
// thread count: same bytes, same committed counters.
TEST(ConcurrencyDeterminismTest, AutoThreadCountMatchesSerial) {
  mr::Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("records", SelfInputLines()).ok());
  const Variant variant{true, true, false};
  auto serial = RunSelfJoin(&dfs, "records", "serial", MakeConfig(1, variant));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto auto_run = RunSelfJoin(&dfs, "records", "auto", MakeConfig(0, variant));
  ASSERT_TRUE(auto_run.ok()) << auto_run.status().ToString();
  EXPECT_EQ(Lines(dfs, serial->output_file), Lines(dfs, auto_run->output_file));
  EXPECT_EQ(CommittedSignature(*serial), CommittedSignature(*auto_run));
}

}  // namespace
}  // namespace fj::join
