// Engine contract tests: wordcount, combiner semantics and traffic
// accounting, custom partition/sort/group comparators (the secondary-sort
// pattern stage 2 relies on), multi-file inputs, setup/teardown hooks, and
// determinism.
#include "mapreduce/job.h"

#include <algorithm>
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "mapreduce/dfs.h"

namespace fj::mr {
namespace {

using K = std::string;
using V = uint64_t;

// Splits each line into words and emits (word, 1).
class WordCountMapper : public Mapper<K, V> {
 public:
  void Map(const InputRecord& record, Emitter<K, V>* out,
           TaskContext*) override {
    for (const auto& w : Split(*record.line, ' ')) {
      if (!w.empty()) out->Emit(w, 1);
    }
  }
};

class SumReducer : public Reducer<K, V> {
 public:
  void Reduce(const K& key, std::span<const std::pair<K, V>> group,
              OutputEmitter* out, TaskContext*) override {
    uint64_t total = 0;
    for (const auto& [k, v] : group) total += v;
    out->Emit(key + "\t" + std::to_string(total));
  }
};

JobSpec<K, V> WordCountSpec(const std::string& in, const std::string& out) {
  JobSpec<K, V> spec;
  spec.name = "wordcount";
  spec.input_files = {in};
  spec.output_file = out;
  spec.num_map_tasks = 3;
  spec.num_reduce_tasks = 2;
  spec.mapper_factory = [] { return std::make_unique<WordCountMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<SumReducer>(); };
  return spec;
}

std::map<std::string, uint64_t> ParseCounts(const Dfs& dfs,
                                            const std::string& file) {
  std::map<std::string, uint64_t> counts;
  auto lines = dfs.ReadFile(file);
  EXPECT_TRUE(lines.ok());
  for (const auto& line : *lines.value()) {
    auto fields = Split(line, '\t');
    EXPECT_EQ(fields.size(), 2u) << line;
    counts[fields[0]] = *ParseUint64(fields[1]);
  }
  return counts;
}

TEST(JobTest, WordCountProducesExactCounts) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {"a b a", "b c", "a", "", "c c c"}).ok());
  Job<K, V> job(&dfs, WordCountSpec("in", "out"));
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  auto counts = ParseCounts(dfs, "out");
  EXPECT_EQ(counts["a"], 3u);
  EXPECT_EQ(counts["b"], 2u);
  EXPECT_EQ(counts["c"], 4u);
  EXPECT_EQ(counts.size(), 3u);
}

TEST(JobTest, MetricsCountRecordsAndTasks) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {"a b", "c d", "e f", "g h"}).ok());
  Job<K, V> job(&dfs, WordCountSpec("in", "out"));
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->map_tasks.size(), 3u);  // requested 3 map tasks
  EXPECT_EQ(metrics->reduce_tasks.size(), 2u);
  uint64_t map_inputs = 0;
  for (const auto& t : metrics->map_tasks) map_inputs += t.input_records;
  EXPECT_EQ(map_inputs, 4u);
  EXPECT_EQ(metrics->map_output_records, 8u);  // 8 words emitted
  EXPECT_GT(metrics->shuffle_bytes, 0u);
}

TEST(JobTest, CombinerReducesShuffleTrafficButNotResults) {
  Dfs dfs;
  std::vector<std::string> lines(50, "x x x x y");
  ASSERT_TRUE(dfs.WriteFile("in", lines).ok());

  auto no_combiner = WordCountSpec("in", "out1");
  Job<K, V> job1(&dfs, no_combiner);
  auto m1 = job1.Run();
  ASSERT_TRUE(m1.ok());

  auto with_combiner = WordCountSpec("in", "out2");
  with_combiner.combiner = [](const K& key, std::vector<V>&& values,
                              Emitter<K, V>* out) {
    uint64_t total = 0;
    for (V v : values) total += v;
    out->Emit(key, total);
  };
  Job<K, V> job2(&dfs, with_combiner);
  auto m2 = job2.Run();
  ASSERT_TRUE(m2.ok());

  EXPECT_EQ(ParseCounts(dfs, "out1"), ParseCounts(dfs, "out2"));
  EXPECT_LT(m2->shuffle_records, m1->shuffle_records);
  EXPECT_LT(m2->shuffle_bytes, m1->shuffle_bytes);
  // Pre-combine map output is identical.
  EXPECT_EQ(m2->map_output_records, m1->map_output_records);
  // 3 map tasks x at most 2 distinct words per partition set.
  EXPECT_LE(m2->shuffle_records, 3u * 2u);
  // Combined output is metered per task: what crosses the shuffle never
  // exceeds what the mapper emitted, and the totals are task sums.
  uint64_t task_shuffle = 0, task_output = 0;
  for (const auto& t : m2->map_tasks) {
    EXPECT_LE(t.shuffle_records, t.output_records);
    EXPECT_LE(t.shuffle_bytes, t.output_bytes);
    task_shuffle += t.shuffle_records;
    task_output += t.output_records;
  }
  EXPECT_EQ(task_shuffle, m2->shuffle_records);
  EXPECT_EQ(task_output, m2->map_output_records);
  EXPECT_LE(m2->shuffle_records, m2->map_output_records);
}

// Secondary sort: partition on the first key field, sort on both, group on
// the first — the reducer must see one group per first-field value with
// second fields ascending. This is exactly the stage-2 PK pattern.
TEST(JobTest, SecondarySortGroupsByPrimaryAndSortsBySecondary) {
  using K2 = std::pair<std::string, uint64_t>;
  Dfs dfs;
  ASSERT_TRUE(
      dfs.WriteFile("in", {"b 3", "a 2", "b 1", "a 9", "b 2", "a 1"}).ok());

  JobSpec<K2, uint64_t> spec;
  spec.name = "secondary-sort";
  spec.input_files = {"in"};
  spec.output_file = "out";
  spec.num_map_tasks = 2;
  spec.num_reduce_tasks = 3;
  spec.mapper_factory = [] {
    return std::make_unique<LambdaMapper<K2, uint64_t>>(
        [](const InputRecord& record, Emitter<K2, uint64_t>* out,
           TaskContext*) {
          auto fields = Split(*record.line, ' ');
          out->Emit(K2(fields[0], *ParseUint64(fields[1])), 0);
        });
  };
  spec.partitioner = [](const K2& key, size_t partitions) {
    return HashString(key.first) % partitions;
  };
  spec.group_equal = [](const K2& a, const K2& b) {
    return a.first == b.first;
  };
  spec.reducer_factory = [] {
    return std::make_unique<LambdaReducer<K2, uint64_t>>(
        [](const K2& key, std::span<const std::pair<K2, uint64_t>> group,
           OutputEmitter* out, TaskContext*) {
          std::string line = key.first + ":";
          for (const auto& [k, v] : group) {
            line += ' ';
            line += std::to_string(k.second);
          }
          out->Emit(line);
        });
  };
  Job<K2, uint64_t> job(&dfs, std::move(spec));
  ASSERT_TRUE(job.Run().ok());

  auto lines = dfs.ReadFile("out");
  ASSERT_TRUE(lines.ok());
  std::map<std::string, std::string> by_key;
  for (const auto& line : *lines.value()) {
    by_key[line.substr(0, 1)] = line;
  }
  EXPECT_EQ(by_key["a"], "a: 1 2 9");
  EXPECT_EQ(by_key["b"], "b: 1 2 3");
  EXPECT_EQ(by_key.size(), 2u);  // one reduce call per primary key
}

// Mappers can distinguish their input file — the stage-3 BRJ requirement.
TEST(JobTest, MultiInputMapperSeesFileIndex) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("left", {"l1", "l2"}).ok());
  ASSERT_TRUE(dfs.WriteFile("right", {"r1"}).ok());

  JobSpec<K, V> spec;
  spec.name = "multi-input";
  spec.input_files = {"left", "right"};
  spec.output_file = "out";
  spec.num_reduce_tasks = 1;
  spec.mapper_factory = [] {
    return std::make_unique<LambdaMapper<K, V>>(
        [](const InputRecord& record, Emitter<K, V>* out, TaskContext*) {
          out->Emit(*record.line + "@" + std::to_string(record.file_index),
                    1);
        });
  };
  spec.reducer_factory = [] {
    return std::make_unique<LambdaReducer<K, V>>(
        [](const K& key, std::span<const std::pair<K, V>>, OutputEmitter* out,
           TaskContext*) { out->Emit(key); });
  };
  Job<K, V> job(&dfs, std::move(spec));
  ASSERT_TRUE(job.Run().ok());

  auto lines = dfs.ReadFile("out");
  ASSERT_TRUE(lines.ok());
  std::vector<std::string> sorted = *lines.value();
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted,
            (std::vector<std::string>{"l1@0", "l2@0", "r1@1"}));
}

// Teardown can emit (OPTO emits its entire output there).
TEST(JobTest, MapperAndReducerTeardownRun) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {"x"}).ok());

  class TeardownMapper : public Mapper<K, V> {
   public:
    void Map(const InputRecord&, Emitter<K, V>*, TaskContext*) override {}
    void Teardown(Emitter<K, V>* out, TaskContext*) override {
      out->Emit("from-teardown", 7);
    }
  };
  class TeardownReducer : public Reducer<K, V> {
   public:
    void Reduce(const K& key, std::span<const std::pair<K, V>>,
                OutputEmitter*, TaskContext*) override {
      seen_.push_back(key);
    }
    void Teardown(OutputEmitter* out, TaskContext*) override {
      for (const auto& k : seen_) out->Emit("teardown:" + k);
    }

   private:
    std::vector<std::string> seen_;
  };

  JobSpec<K, V> spec;
  spec.name = "teardown";
  spec.input_files = {"in"};
  spec.output_file = "out";
  spec.num_reduce_tasks = 1;
  spec.mapper_factory = [] { return std::make_unique<TeardownMapper>(); };
  spec.reducer_factory = [] { return std::make_unique<TeardownReducer>(); };
  Job<K, V> job(&dfs, std::move(spec));
  ASSERT_TRUE(job.Run().ok());

  auto lines = dfs.ReadFile("out");
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(*lines.value(),
            (std::vector<std::string>{"teardown:from-teardown"}));
}

TEST(JobTest, RepeatedRunsProduceIdenticalOutput) {
  Dfs dfs;
  std::vector<std::string> lines;
  for (int i = 0; i < 100; ++i) {
    std::string line = "w";
    line += std::to_string(i % 17);
    line += " w";
    line += std::to_string(i % 5);
    lines.push_back(std::move(line));
  }
  ASSERT_TRUE(dfs.WriteFile("in", lines).ok());
  Job<K, V> job1(&dfs, WordCountSpec("in", "out1"));
  ASSERT_TRUE(job1.Run().ok());
  Job<K, V> job2(&dfs, WordCountSpec("in", "out2"));
  ASSERT_TRUE(job2.Run().ok());
  EXPECT_EQ(*dfs.ReadFile("out1").value(), *dfs.ReadFile("out2").value());
}

TEST(JobTest, MissingInputFileFails) {
  Dfs dfs;
  Job<K, V> job(&dfs, WordCountSpec("nope", "out"));
  auto metrics = job.Run();
  EXPECT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kNotFound);
}

TEST(JobTest, InvalidSpecRejected) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {"x"}).ok());
  auto spec = WordCountSpec("in", "out");
  spec.num_reduce_tasks = 0;
  Job<K, V> job(&dfs, std::move(spec));
  EXPECT_EQ(job.Run().status().code(), StatusCode::kInvalidArgument);
}

// The checksum a plain Dfs write of `file`'s committed lines gives, the
// Dfs hashing every line itself.
uint64_t PlainWriteChecksum(const Dfs& dfs, const std::string& file) {
  const std::vector<std::string> lines = *dfs.ReadFile(file).value();
  Dfs plain;
  const Status written = plain.WriteFile("f", lines);
  EXPECT_TRUE(written.ok()) << written.ToString();
  return plain.FileChecksum("f").value();
}

std::vector<std::string> WordLines() {
  std::vector<std::string> lines;
  for (int i = 0; i < 60; ++i) {
    lines.push_back("w" + std::to_string(i % 17) + " w" +
                    std::to_string(i % 5) + " x" + std::to_string(i));
  }
  return lines;
}

TEST(JobTest, CommittedOutputChecksumsMatchAPlainDfsWrite) {
  // The reduce tasks hash their own output lines and the commit only folds
  // them: the committed file must be the one a plain write produces.
  struct Case {
    const char* name;
    RecordFormat format;
    BlockCodec codec;
    bool speculative;
  };
  const Case cases[] = {
      {"text", RecordFormat::kText, BlockCodec::kNone, false},
      {"fjlz", RecordFormat::kBinary, BlockCodec::kFjlz, false},
      {"text+speculation", RecordFormat::kText, BlockCodec::kNone, true},
      {"fjlz+speculation", RecordFormat::kBinary, BlockCodec::kFjlz, true},
  };
  for (const Case& c : cases) {
    Dfs dfs;
    ASSERT_TRUE(dfs.WriteFile("in", WordLines()).ok());
    auto spec = WordCountSpec("in", "out");
    spec.num_reduce_tasks = 4;
    spec.sort_buffer_bytes = 256;
    spec.record_format = c.format;
    spec.block_codec = c.codec;
    if (c.speculative) {
      // Reduce task 1 straggles, so it gets a speculative backup.
      auto plan = std::make_shared<FaultPlan>();
      plan->faults.push_back(FaultSpec{.phase = TaskPhase::kReduce,
                                       .task_id = 1,
                                       .extra_seconds = 50.0});
      spec.fault_plan = plan;
      spec.speculative_execution = true;
    }
    Job<K, V> job(&dfs, std::move(spec));
    auto metrics = job.Run();
    ASSERT_TRUE(metrics.ok()) << c.name << ": " << metrics.status().ToString();
    if (c.speculative) {
      EXPECT_GT(metrics->speculative_launched, 0u) << c.name;
    }
    EXPECT_GT(dfs.FileLines("out").value(), 20u) << c.name;
    EXPECT_TRUE(dfs.VerifyFile("out").ok()) << c.name;
    EXPECT_EQ(dfs.FileChecksum("out").value(), PlainWriteChecksum(dfs, "out"))
        << c.name;
  }
}

TEST(JobTest, CorruptedReduceOutputIsWhatGetsHashed) {
  // With verification off, a reduce-output corruption commits silently —
  // and the file's checksums describe the corrupted bytes, exactly as a
  // plain write of those bytes would.
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", WordLines()).ok());
  Job<K, V> clean(&dfs, WordCountSpec("in", "clean"));
  ASSERT_TRUE(clean.Run().ok());

  auto spec = WordCountSpec("in", "out");
  auto plan = std::make_shared<FaultPlan>();
  plan->faults.push_back(
      FaultSpec{.phase = TaskPhase::kReduce,
                .task_id = 0,
                .failing_attempts = FaultSpec::kAllAttempts,
                .corrupt_target = CorruptTarget::kReduceOutput,
                .corrupt_salt = 7});
  spec.fault_plan = plan;
  Job<K, V> corrupted(&dfs, std::move(spec));
  auto metrics = corrupted.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->corruption_detected, 0u);
  EXPECT_NE(*dfs.ReadFile("out").value(), *dfs.ReadFile("clean").value());
  EXPECT_TRUE(dfs.VerifyFile("out").ok());
  EXPECT_EQ(dfs.FileChecksum("out").value(), PlainWriteChecksum(dfs, "out"));
}

}  // namespace
}  // namespace fj::mr
