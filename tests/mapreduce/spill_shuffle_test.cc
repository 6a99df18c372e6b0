// Sort-spill-merge shuffle: a bounded sort buffer must change HOW the
// shuffle runs (spills, runs, merge passes, charged disk traffic) without
// changing WHAT it produces. Every test here runs the same job twice —
// unbounded (legacy single in-memory run) and budgeted — and demands
// byte-identical output files, across the comparator shapes the pipeline
// actually uses (default ordering, PK-style secondary sort, BTO-style
// custom sort into a single reducer) and with a combiner in the loop.
#include <gtest/gtest.h>

#include <map>
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

// ~200 lines of skewed words: enough intermediate volume that a tiny
// budget forces many spills per map task.
std::vector<std::string> SkewedLines() {
  std::vector<std::string> lines;
  for (int i = 0; i < 200; ++i) {
    lines.push_back("w" + std::to_string(i % 23) + " w" +
                    std::to_string(i % 7) + " w" + std::to_string(i % 3));
  }
  return lines;
}

JobSpec<K, V> WordCountSpec(const std::string& in, const std::string& out) {
  JobSpec<K, V> spec;
  spec.name = "spill-wordcount";
  spec.input_files = {in};
  spec.output_file = out;
  spec.num_map_tasks = 6;
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

JobMetrics RunOrDie(Dfs* dfs, JobSpec<K, V> spec) {
  Job<K, V> job(dfs, std::move(spec));
  auto metrics = job.Run();
  EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
  return *metrics;
}

const std::vector<std::string>& Output(const Dfs& dfs,
                                       const std::string& file) {
  auto lines = dfs.ReadFile(file);
  EXPECT_TRUE(lines.ok());
  return *lines.value();
}

TEST(SpillShuffleTest, TinyBudgetSpillsButOutputIsByteIdentical) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", SkewedLines()).ok());

  auto legacy = RunOrDie(&dfs, WordCountSpec("in", "legacy"));
  EXPECT_EQ(legacy.spill_count, 0u);
  EXPECT_EQ(legacy.spilled_bytes, 0u);
  // Legacy still streams one merge pass over the per-map-task in-memory
  // runs (one per reduce task); it just never touches disk.
  EXPECT_EQ(legacy.merge_passes, 3u);

  auto spec = WordCountSpec("in", "spilled");
  spec.sort_buffer_bytes = 64;  // a handful of pairs per spill
  auto spilled = RunOrDie(&dfs, std::move(spec));
  EXPECT_GT(spilled.spill_count, 0u);
  EXPECT_GT(spilled.spilled_bytes, 0u);
  EXPECT_GT(spilled.merge_passes, 0u);

  EXPECT_EQ(Output(dfs, "legacy"), Output(dfs, "spilled"));
  // Record/byte accounting does not depend on the execution strategy.
  EXPECT_EQ(spilled.map_output_records, legacy.map_output_records);
  EXPECT_EQ(spilled.shuffle_records, legacy.shuffle_records);
  // Every run block carries its own frame header, so shuffle_bytes grows
  // with the number of runs (2576 unbounded, 3596 spilled); the encoded
  // pairs inside the blocks do not.
  EXPECT_EQ(spilled.codec_logical_bytes, legacy.codec_logical_bytes);
  EXPECT_EQ(spilled.input_bytes, legacy.input_bytes);
}

TEST(SpillShuffleTest, PeakBufferBytesBoundedByBudget) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", SkewedLines()).ok());
  const uint64_t budget = 128;
  auto spec = WordCountSpec("in", "out");
  spec.sort_buffer_bytes = budget;
  auto metrics = RunOrDie(&dfs, std::move(spec));
  for (const auto& t : metrics.map_tasks) {
    EXPECT_LE(t.peak_buffer_bytes, budget);
    EXPECT_GT(t.peak_buffer_bytes, 0u);
  }
}

TEST(SpillShuffleTest, SpillTrafficIsChargedToTaskScratch) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", SkewedLines()).ok());
  auto spec = WordCountSpec("in", "out");
  spec.sort_buffer_bytes = 64;
  auto metrics = RunOrDie(&dfs, std::move(spec));
  // Every spilled byte is written through the task's scratch and read back
  // by the merge; both directions show up in the job counters.
  EXPECT_GT(metrics.counters.Get("scratch.spill_bytes_written"), 0);
  EXPECT_GT(metrics.counters.Get("scratch.spill_bytes_read"), 0);
  EXPECT_GE(metrics.counters.Get("scratch.spill_bytes_read"),
            metrics.counters.Get("scratch.spill_bytes_written"));
}

TEST(SpillShuffleTest, TwoWayMergeFactorForcesMultiPassMergeSameOutput) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", SkewedLines()).ok());

  auto legacy = RunOrDie(&dfs, WordCountSpec("in", "legacy"));

  auto wide = WordCountSpec("in", "wide");
  wide.sort_buffer_bytes = 64;
  wide.merge_factor = 64;  // everything merges in one pass
  auto m_wide = RunOrDie(&dfs, std::move(wide));

  auto narrow = WordCountSpec("in", "narrow");
  narrow.sort_buffer_bytes = 64;
  narrow.merge_factor = 2;  // binary merge: many intermediate passes
  auto m_narrow = RunOrDie(&dfs, std::move(narrow));

  EXPECT_EQ(Output(dfs, "legacy"), Output(dfs, "wide"));
  EXPECT_EQ(Output(dfs, "legacy"), Output(dfs, "narrow"));
  EXPECT_GT(m_narrow.merge_passes, m_wide.merge_passes);
  // Intermediate collapses re-spill merged runs, so binary merging also
  // moves more bytes through local disk.
  EXPECT_GT(m_narrow.spilled_bytes, m_wide.spilled_bytes);
}

TEST(SpillShuffleTest, CombinerRunsPerSpillAndNeverInflatesShuffle) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", SkewedLines()).ok());

  auto plain = RunOrDie(&dfs, WordCountSpec("in", "plain"));

  auto combine = [](const K& key, std::vector<V>&& values,
                    Emitter<K, V>* out) {
    uint64_t total = 0;
    for (V v : values) total += v;
    out->Emit(key, total);
  };

  auto legacy = WordCountSpec("in", "legacy");
  legacy.combiner = combine;
  auto m_legacy = RunOrDie(&dfs, std::move(legacy));

  auto spilled = WordCountSpec("in", "spilled");
  spilled.combiner = combine;
  spilled.sort_buffer_bytes = 64;
  auto m_spilled = RunOrDie(&dfs, std::move(spilled));

  // The sum combiner is algebraic, so results match the combiner-free run
  // byte for byte no matter how often it was applied.
  EXPECT_EQ(Output(dfs, "plain"), Output(dfs, "legacy"));
  EXPECT_EQ(Output(dfs, "plain"), Output(dfs, "spilled"));

  // A combiner only ever shrinks traffic: per task and in total.
  for (const auto& m : {m_legacy, m_spilled}) {
    EXPECT_LE(m.shuffle_records, m.map_output_records);
    for (const auto& t : m.map_tasks) {
      EXPECT_LE(t.shuffle_records, t.output_records);
    }
  }
  // Per-spill combining sees fewer duplicates per invocation than one
  // combine over the whole task output, so it saves less — but still
  // strictly less traffic than no combiner at all.
  EXPECT_LE(m_legacy.shuffle_records, m_spilled.shuffle_records);
  EXPECT_LT(m_spilled.shuffle_records, plain.shuffle_records);
}

// PK-style secondary sort: partition on the primary field, sort on
// (primary, secondary), group on the primary. The merge must deliver each
// group contiguously with secondaries ascending, exactly as the legacy
// sort did.
TEST(SpillShuffleTest, SecondarySortComparatorsSurviveSpilling) {
  using K2 = std::pair<std::string, uint64_t>;
  Dfs dfs;
  std::vector<std::string> lines;
  for (int i = 0; i < 120; ++i) {
    lines.push_back("k" + std::to_string(i % 9) + " " +
                    std::to_string((i * 37) % 101));
  }
  ASSERT_TRUE(dfs.WriteFile("in", lines).ok());

  auto make_spec = [](const std::string& out) {
    JobSpec<K2, uint64_t> spec;
    spec.name = "spill-secondary-sort";
    spec.input_files = {"in"};
    spec.output_file = out;
    spec.num_map_tasks = 5;
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
    return spec;
  };

  Job<K2, uint64_t> legacy(&dfs, make_spec("legacy"));
  ASSERT_TRUE(legacy.Run().ok());

  auto spec = make_spec("spilled");
  spec.sort_buffer_bytes = 96;
  Job<K2, uint64_t> job(&dfs, std::move(spec));
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok());
  EXPECT_GT(metrics->spill_count, 0u);

  EXPECT_EQ(Output(dfs, "legacy"), Output(dfs, "spilled"));
}

// BTO-style: a custom sort_less (descending count, token tiebreak) feeding
// a single reducer. The global order across every map task's runs must
// match the legacy whole-partition sort.
TEST(SpillShuffleTest, CustomSortLessIntoSingleReducerSurvivesSpilling) {
  using KB = std::pair<uint64_t, std::string>;
  Dfs dfs;
  std::vector<std::string> lines;
  for (int i = 0; i < 150; ++i) {
    lines.push_back("t" + std::to_string(i % 31) + " " +
                    std::to_string(1 + i % 13));
  }
  ASSERT_TRUE(dfs.WriteFile("in", lines).ok());

  auto make_spec = [](const std::string& out) {
    JobSpec<KB, uint64_t> spec;
    spec.name = "spill-bto-sort";
    spec.input_files = {"in"};
    spec.output_file = out;
    spec.num_map_tasks = 4;
    spec.num_reduce_tasks = 1;
    spec.mapper_factory = [] {
      return std::make_unique<LambdaMapper<KB, uint64_t>>(
          [](const InputRecord& record, Emitter<KB, uint64_t>* out,
             TaskContext*) {
            auto fields = Split(*record.line, ' ');
            out->Emit(KB(*ParseUint64(fields[1]), fields[0]), 0);
          });
    };
    spec.sort_less = [](const KB& a, const KB& b) {
      if (a.first != b.first) return a.first > b.first;  // descending count
      return a.second < b.second;
    };
    spec.reducer_factory = [] {
      return std::make_unique<LambdaReducer<KB, uint64_t>>(
          [](const KB& key, std::span<const std::pair<KB, uint64_t>> group,
             OutputEmitter* out, TaskContext*) {
            out->Emit(key.second + "\t" + std::to_string(key.first) + "\tx" +
                      std::to_string(group.size()));
          });
    };
    return spec;
  };

  Job<KB, uint64_t> legacy(&dfs, make_spec("legacy"));
  ASSERT_TRUE(legacy.Run().ok());

  auto spec = make_spec("spilled");
  spec.sort_buffer_bytes = 80;
  spec.merge_factor = 2;
  Job<KB, uint64_t> job(&dfs, std::move(spec));
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok());
  EXPECT_GT(metrics->spill_count, 0u);
  EXPECT_GT(metrics->merge_passes, 0u);

  EXPECT_EQ(Output(dfs, "legacy"), Output(dfs, "spilled"));
}

TEST(SpillShuffleTest, SinglePairLargerThanBudgetStillWorks) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile(
                     "in", {std::string(300, 'a') + " " + std::string(300, 'b')})
                  .ok());
  auto spec = WordCountSpec("in", "out");
  spec.sort_buffer_bytes = 8;  // smaller than any single pair
  auto metrics = RunOrDie(&dfs, std::move(spec));
  auto out = Output(dfs, "out");
  ASSERT_EQ(out.size(), 2u);
}

TEST(SpillShuffleTest, MergeFactorBelowTwoRejected) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", {"x"}).ok());
  auto spec = WordCountSpec("in", "out");
  spec.merge_factor = 1;
  Job<K, V> job(&dfs, std::move(spec));
  EXPECT_EQ(job.Run().status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fj::mr
