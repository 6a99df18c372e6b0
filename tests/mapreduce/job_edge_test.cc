// Engine edge cases beyond the happy path: empty inputs, silent mappers,
// more reducers than keys, combiner with a custom partitioner, thread-count
// independence, and metric/counter accounting invariants.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "common/string_util.h"
#include "mapreduce/job.h"

namespace fj::mr {
namespace {

using K = std::string;
using V = uint64_t;

JobSpec<K, V> CountSpec(const std::string& in, const std::string& out) {
  JobSpec<K, V> spec;
  spec.name = "count";
  spec.input_files = {in};
  spec.output_file = out;
  spec.num_map_tasks = 4;
  spec.num_reduce_tasks = 3;
  spec.mapper_factory = [] {
    return std::make_unique<LambdaMapper<K, V>>(
        [](const InputRecord& record, Emitter<K, V>* out, TaskContext*) {
          for (const auto& w : Split(*record.line, ' ')) {
            if (!w.empty()) out->Emit(w, 1);
          }
        });
  };
  spec.reducer_factory = [] {
    return std::make_unique<LambdaReducer<K, V>>(
        [](const K& key, std::span<const std::pair<K, V>> group,
           OutputEmitter* out, TaskContext*) {
          uint64_t total = 0;
          for (const auto& [k, v] : group) total += v;
          out->Emit(key + "\t" + std::to_string(total));
        });
  };
  return spec;
}

TEST(JobEdgeTest, EmptyInputFileYieldsEmptyOutput) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {}).ok());
  Job<K, V> job(&dfs, CountSpec("in", "out"));
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->map_tasks.size(), 0u);  // nothing to split
  EXPECT_EQ(metrics->reduce_tasks.size(), 3u);
  EXPECT_TRUE(dfs.ReadFile("out").value()->empty());
}

TEST(JobEdgeTest, MapperEmittingNothing) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {"a", "b"}).ok());
  auto spec = CountSpec("in", "out");
  spec.mapper_factory = [] {
    return std::make_unique<LambdaMapper<K, V>>(
        [](const InputRecord&, Emitter<K, V>*, TaskContext*) {});
  };
  Job<K, V> job(&dfs, std::move(spec));
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->map_output_records, 0u);
  EXPECT_EQ(metrics->shuffle_bytes, 0u);
  EXPECT_TRUE(dfs.ReadFile("out").value()->empty());
}

TEST(JobEdgeTest, MoreReducersThanKeys) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {"only"}).ok());
  auto spec = CountSpec("in", "out");
  spec.num_reduce_tasks = 16;
  Job<K, V> job(&dfs, std::move(spec));
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(dfs.ReadFile("out").value()->size(), 1u);
  // Exactly one reduce task saw input.
  size_t with_input = 0;
  for (const auto& t : metrics->reduce_tasks) {
    with_input += t.input_records > 0;
  }
  EXPECT_EQ(with_input, 1u);
}

TEST(JobEdgeTest, MoreMapTasksThanLines) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {"x y", "y z"}).ok());
  auto spec = CountSpec("in", "out");
  spec.num_map_tasks = 50;
  Job<K, V> job(&dfs, std::move(spec));
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok());
  EXPECT_LE(metrics->map_tasks.size(), 2u);  // capped at line count
  std::map<std::string, std::string> rows;
  for (const auto& line : *dfs.ReadFile("out").value()) {
    auto fields = Split(line, '\t');
    rows[fields[0]] = fields[1];
  }
  EXPECT_EQ(rows["y"], "2");
}

TEST(JobEdgeTest, CombinerRespectsCustomPartitioner) {
  // Keys routed by first letter; the combiner must keep each key in its
  // partition, and totals must be exact.
  Dfs dfs;
  std::vector<std::string> lines(30, "apple avocado banana apple");
  ASSERT_TRUE(dfs.WriteFile("in", lines).ok());
  auto spec = CountSpec("in", "out");
  spec.partitioner = [](const K& key, size_t partitions) {
    return static_cast<size_t>(key[0]) % partitions;
  };
  spec.combiner = [](const K& key, std::vector<V>&& values,
                     Emitter<K, V>* out) {
    uint64_t total = 0;
    for (V v : values) total += v;
    out->Emit(key, total);
  };
  Job<K, V> job(&dfs, std::move(spec));
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok());
  std::map<std::string, std::string> rows;
  for (const auto& line : *dfs.ReadFile("out").value()) {
    auto fields = Split(line, '\t');
    rows[fields[0]] = fields[1];
  }
  EXPECT_EQ(rows["apple"], "60");
  EXPECT_EQ(rows["avocado"], "30");
  EXPECT_EQ(rows["banana"], "30");
  // Combined: at most (#map tasks x #distinct keys) shuffle records.
  EXPECT_LE(metrics->shuffle_records, 4u * 3u);
}

TEST(JobEdgeTest, CombinerWithCustomComparatorsIsRejected) {
  // The sort buffer groups combiner input by key in a hash table; a custom
  // grouping could join two different keys into one group, so the job
  // must refuse it up front instead of combining different groups.
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {"b a", "a c"}).ok());
  auto combine = [](const K& key, std::vector<V>&& values,
                    Emitter<K, V>* out) {
    uint64_t total = 0;
    for (V v : values) total += v;
    out->Emit(key, total);
  };

  auto with_sort = CountSpec("in", "out_sort");
  with_sort.combiner = combine;
  with_sort.sort_less = [](const K& a, const K& b) { return a > b; };
  auto sorted = Job<K, V>(&dfs, std::move(with_sort)).Run();
  ASSERT_FALSE(sorted.ok());
  EXPECT_EQ(sorted.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sorted.status().message().find("combiner"), std::string::npos);

  auto with_group = CountSpec("in", "out_group");
  with_group.combiner = combine;
  with_group.group_equal = [](const K& a, const K& b) { return a[0] == b[0]; };
  auto grouped = Job<K, V>(&dfs, std::move(with_group)).Run();
  ASSERT_FALSE(grouped.ok());
  EXPECT_EQ(grouped.status().code(), StatusCode::kInvalidArgument);

  // Nothing ran, so neither output exists.
  EXPECT_FALSE(dfs.Exists("out_sort"));
  EXPECT_FALSE(dfs.Exists("out_group"));

  // The same comparators without a combiner are fine.
  auto plain = CountSpec("in", "out_plain");
  plain.sort_less = [](const K& a, const K& b) { return a > b; };
  Job<K, V> plain_job(&dfs, std::move(plain));
  EXPECT_TRUE(plain_job.Run().ok());
}

TEST(JobEdgeTest, MultiThreadedExecutionMatchesSingleThreaded) {
  Dfs dfs;
  std::vector<std::string> lines;
  for (int i = 0; i < 500; ++i) {
    lines.push_back("w" + std::to_string(i % 37) + " w" +
                    std::to_string(i % 11) + " w" + std::to_string(i % 7));
  }
  ASSERT_TRUE(dfs.WriteFile("in", lines).ok());

  auto single = CountSpec("in", "out1");
  single.local_threads = 1;
  Job<K, V> job1(&dfs, std::move(single));
  ASSERT_TRUE(job1.Run().ok());

  auto multi = CountSpec("in", "out2");
  multi.local_threads = 4;
  Job<K, V> job2(&dfs, std::move(multi));
  ASSERT_TRUE(job2.Run().ok());

  EXPECT_EQ(*dfs.ReadFile("out1").value(), *dfs.ReadFile("out2").value());
}

TEST(JobEdgeTest, InputRecordsConservedAcrossSplits) {
  Dfs dfs;
  std::vector<std::string> lines(997, "x");
  ASSERT_TRUE(dfs.WriteFile("in", lines).ok());
  for (size_t map_tasks : {1u, 3u, 17u, 100u}) {
    auto spec = CountSpec("in", "out" + std::to_string(map_tasks));
    spec.num_map_tasks = map_tasks;
    Job<K, V> job(&dfs, std::move(spec));
    auto metrics = job.Run();
    ASSERT_TRUE(metrics.ok());
    uint64_t total = 0;
    for (const auto& t : metrics->map_tasks) total += t.input_records;
    EXPECT_EQ(total, 997u) << map_tasks << " map tasks";
  }
}

TEST(JobEdgeTest, CountersVisibleAcrossTasks) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {"a", "b", "c", "d"}).ok());
  auto spec = CountSpec("in", "out");
  spec.mapper_factory = [] {
    return std::make_unique<LambdaMapper<K, V>>(
        [](const InputRecord&, Emitter<K, V>*, TaskContext* ctx) {
          ctx->counters().Add("records_seen", 1);
        });
  };
  Job<K, V> job(&dfs, std::move(spec));
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->counters.Get("records_seen"), 4);
}

TEST(JobEdgeTest, OutputFileMayBeOmitted) {
  // A job may run purely for side effects (e.g. counters).
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {"a"}).ok());
  auto spec = CountSpec("in", "");
  Job<K, V> job(&dfs, std::move(spec));
  EXPECT_TRUE(job.Run().ok());
  EXPECT_FALSE(dfs.Exists(""));
}

TEST(JobEdgeTest, ExistingOutputFileIsAnError) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {"a"}).ok());
  ASSERT_TRUE(dfs.WriteFile("out", {"pre-existing"}).ok());
  Job<K, V> job(&dfs, CountSpec("in", "out"));
  EXPECT_EQ(job.Run().status().code(), StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace fj::mr
