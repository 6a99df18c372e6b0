// Contract-checker tests (mapreduce/contract.h): jobs with deliberately
// broken comparators, partitioners, combiners, and reducers must fail with
// a structured FailedPrecondition naming the violated rule BEFORE any
// output is written — and a lawful job must produce byte-identical output
// with checks on and off, with only the metering differing.
#include "mapreduce/contract.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "mapreduce/dfs.h"
#include "mapreduce/job.h"

namespace fj::mr {
namespace {

using K = std::string;
using V = uint64_t;

// Wordcount with contract checking on and every key sampled, so a planted
// violation cannot slip through the sampling.
JobSpec<K, V> CheckedSpec(const std::string& in, const std::string& out) {
  JobSpec<K, V> spec;
  spec.name = "checked";
  spec.input_files = {in};
  spec.output_file = out;
  spec.num_reduce_tasks = 2;
  spec.check_contracts = true;
  spec.contract_sample_every = 1;
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

// Runs the job and asserts it fails with a contract violation naming
// `rule`, without committing an output file.
void ExpectViolation(Dfs* dfs, JobSpec<K, V> spec, const std::string& rule) {
  const std::string out = spec.output_file;
  Job<K, V> job(dfs, std::move(spec));
  auto metrics = job.Run();
  ASSERT_FALSE(metrics.ok()) << "expected a [" << rule << "] violation";
  const Status status = metrics.status();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  EXPECT_NE(status.message().find("contract violation [" + rule + "]"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("job 'checked'"), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(dfs->Exists(out)) << "violating job must not commit output";
}

TEST(ContractTest, NonTransitiveSortComparatorFails) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {"a b c"}).ok());
  auto spec = CheckedSpec("in", "out");
  // Rock-paper-scissors: a < b < c < a. Irreflexive and asymmetric on
  // every pair, so only the sampled-triple check can expose it.
  spec.sort_less = [](const K& a, const K& b) {
    return (a == "a" && b == "b") || (b == "c" && a == "b") ||
           (a == "c" && b == "a");
  };
  ExpectViolation(&dfs, std::move(spec), "sort_less not transitive");
}

TEST(ContractTest, GroupSplittingPartitionerFails) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {"a1 a2"}).ok());
  auto spec = CheckedSpec("in", "out");
  // Group on the first character, but partition on the digit: "a1" and
  // "a2" are one reduce group landing in two partitions.
  spec.group_equal = [](const K& a, const K& b) { return a[0] == b[0]; };
  spec.partitioner = [](const K& key, size_t num_partitions) {
    return static_cast<size_t>(key.back() - '0') % num_partitions;
  };
  ExpectViolation(&dfs, std::move(spec), "partitioner splits a key group");
}

TEST(ContractTest, NonAssociativeCombinerFails) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {"x x x"}).ok());
  auto spec = CheckedSpec("in", "out");
  spec.mapper_factory = [] {
    return std::make_unique<LambdaMapper<K, V>>(
        [](const InputRecord&, Emitter<K, V>* out, TaskContext*) {
          out->Emit("x", 2);
          out->Emit("x", 3);
          out->Emit("x", 4);
        });
  };
  // Sum of squares: combine({2,3,4}) = 29, but combining the partial
  // aggregates combine({4, 25}) = 641 — partials do not compose.
  spec.combiner = [](const K& key, std::vector<V>&& values,
                     Emitter<K, V>* out) {
    uint64_t total = 0;
    for (V v : values) total += v * v;
    out->Emit(key, total);
  };
  ExpectViolation(&dfs, std::move(spec), "combiner not associative");
}

TEST(ContractTest, PartitionOutOfRangeFails) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {"a b"}).ok());
  auto spec = CheckedSpec("in", "out");
  spec.partitioner = [](const K&, size_t num_partitions) {
    return num_partitions;  // one past the end
  };
  ExpectViolation(&dfs, std::move(spec), "partition out of range");
}

TEST(ContractTest, GroupComparatorFinerThanSortOrderFails) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {"a1 a2"}).ok());
  auto spec = CheckedSpec("in", "out");
  // Sort can't tell "a1" from "a2" but grouping can: equal-sorting keys
  // would land in one merged run yet split into interleaved groups.
  spec.sort_less = [](const K& a, const K& b) { return a[0] < b[0]; };
  spec.group_equal = [](const K& a, const K& b) { return a == b; };
  ExpectViolation(&dfs, std::move(spec),
                  "group comparator finer than sort order");
}

TEST(ContractTest, ReducerMutatingKeyFails) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {"a b"}).ok());
  auto spec = CheckedSpec("in", "out");
  spec.reducer_factory = [] {
    return std::make_unique<LambdaReducer<K, V>>(
        [](const K& key, std::span<const std::pair<K, V>> group,
           OutputEmitter* out, TaskContext*) {
          // A buggy reducer scribbling on the merged run in place.
          const_cast<K&>(group.front().first) += "!";
          out->Emit(key);
        });
  };
  ExpectViolation(&dfs, std::move(spec), "reducer mutated the group key");
}

TEST(ContractTest, CleanJobIsByteIdenticalWithChecksOnAndOff) {
  Dfs dfs;
  ASSERT_TRUE(
      dfs.WriteFile("in", {"a b a", "b c", "a", "", "c c c"}).ok());

  auto off = CheckedSpec("in", "out_off");
  off.check_contracts = false;
  Job<K, V> job_off(&dfs, off);
  auto m_off = job_off.Run();
  ASSERT_TRUE(m_off.ok()) << m_off.status().ToString();

  auto on = CheckedSpec("in", "out_on");
  Job<K, V> job_on(&dfs, on);
  auto m_on = job_on.Run();
  ASSERT_TRUE(m_on.ok()) << m_on.status().ToString();

  auto lines_off = dfs.ReadFile("out_off");
  auto lines_on = dfs.ReadFile("out_on");
  ASSERT_TRUE(lines_off.ok() && lines_on.ok());
  EXPECT_EQ(*lines_off.value(), *lines_on.value());

  // Checking is observable only in the typed metering.
  EXPECT_EQ(m_off->contract_checks, 0u);
  EXPECT_GT(m_on->contract_checks, 0u);
  EXPECT_EQ(m_off->counters.Snapshot(), m_on->counters.Snapshot());
}

TEST(ContractTest, SampleEveryZeroIsRejected) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {"a"}).ok());
  auto spec = CheckedSpec("in", "out");
  spec.contract_sample_every = 0;
  Job<K, V> job(&dfs, std::move(spec));
  auto metrics = job.Run();
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fj::mr
