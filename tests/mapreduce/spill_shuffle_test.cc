// Sort-spill-merge shuffle: a bounded sort buffer must change HOW the
// shuffle runs (spills, runs, merge passes, charged disk traffic) without
// changing WHAT it produces. The job tests run the same job twice —
// unbounded (legacy single in-memory run) and budgeted — and demand
// byte-identical output files, across the comparator shapes the pipeline
// actually uses (default ordering, PK-style secondary sort, BTO-style
// custom sort into a single reducer) and with a combiner in the loop.
// The last tests hold the reduce side's streaming merge to its memory
// bound and drive RunMerger directly over hand-made run blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "mapreduce/dfs.h"
#include "mapreduce/job.h"
#include "mapreduce/record_format.h"
#include "mapreduce/run_merger.h"

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
  // Every spilled byte is metered once, in the spilled_bytes of the task
  // that spilled it; the cost model prices its write and its re-read from
  // that one meter.
  uint64_t task_bytes = 0;
  for (const auto* tasks : {&metrics.map_tasks, &metrics.reduce_tasks}) {
    for (const TaskMetrics& t : *tasks) {
      EXPECT_EQ(t.spilled_bytes > 0, t.spill_count > 0);
      task_bytes += t.spilled_bytes;
    }
  }
  EXPECT_GT(metrics.map_tasks[0].spilled_bytes, 0u);
  EXPECT_EQ(metrics.spilled_bytes, task_bytes);
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

// A shuffle value that counts the values of its type alive at once. A
// moved-from object holds no value, so it does not count: the count is
// what the values' payloads would cost, not the shells a vector's
// reallocation leaves behind for an instant.
class Counted {
 public:
  Counted() { Acquire(); }
  explicit Counted(uint64_t n) : n_(n) { Acquire(); }
  Counted(const Counted& other) : n_(other.n_) { Acquire(); }
  Counted(Counted&& other) noexcept : n_(other.n_), live_(other.live_) {
    other.live_ = false;
  }
  Counted& operator=(const Counted& other) {
    n_ = other.n_;
    if (!live_) Acquire();
    live_ = true;
    return *this;
  }
  Counted& operator=(Counted&& other) noexcept {
    if (live_) Release();
    n_ = other.n_;
    live_ = other.live_;
    other.live_ = false;
    return *this;
  }
  ~Counted() {
    if (live_) Release();
  }

  uint64_t n() const { return n_; }

  /// Starts a new peak window at the current live count.
  static void ResetPeak() { peak_.store(live_count_.load()); }
  static int64_t Peak() { return peak_.load(); }

 private:
  static void Acquire() {
    const int64_t now = ++live_count_;
    int64_t peak = peak_.load();
    while (now > peak && !peak_.compare_exchange_weak(peak, now)) {
    }
  }
  static void Release() { --live_count_; }

  inline static std::atomic<int64_t> live_count_{0};
  inline static std::atomic<int64_t> peak_{0};

  uint64_t n_ = 0;
  bool live_ = true;
};

size_t FjByteSize(const Counted&) { return 8; }
void FjEncodeContent(const Counted& c, std::string* out) {
  EncodeContent(c.n(), out);
}
bool FjDecodeContent(std::string_view buf, size_t* pos, Counted* c) {
  uint64_t n = 0;
  if (!DecodeContent(buf, pos, &n)) return false;
  *c = Counted(n);
  return true;
}

// The reduce side streams: while it merges one partition of many small
// runs, it holds one decoded value per open run plus the current group,
// never the whole partition. The peak window opens at the reducer's
// Setup, after every map task has finished.
TEST(SpillShuffleTest, StreamingMergeHoldsOpenRunsPlusOneGroup) {
  constexpr size_t kLines = 2000;
  constexpr size_t kKeys = 50;
  std::vector<std::string> lines;
  for (size_t i = 0; i < kLines; ++i) lines.push_back(std::to_string(i));
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", lines).ok());

  static std::atomic<size_t> largest_group{0};
  static std::atomic<size_t> values_reduced{0};
  largest_group = 0;
  values_reduced = 0;
  JobSpec<uint64_t, Counted> spec;
  spec.name = "streaming-merge";
  spec.input_files = {"in"};
  spec.output_file = "out";
  spec.num_map_tasks = 8;
  spec.num_reduce_tasks = 1;
  spec.sort_buffer_bytes = 256;  // 16 pairs of 16 charged bytes per run
  spec.check_contracts = false;
  spec.mapper_factory = [] {
    return std::make_unique<LambdaMapper<uint64_t, Counted>>(
        [](const InputRecord& record, Emitter<uint64_t, Counted>* out,
           TaskContext*) {
          const uint64_t n = *ParseUint64(*record.line);
          out->Emit(n % kKeys, Counted(n));
        });
  };
  class CountingReducer : public Reducer<uint64_t, Counted> {
   public:
    void Setup(TaskContext*) override { Counted::ResetPeak(); }
    void Reduce(const uint64_t& key,
                std::span<const std::pair<uint64_t, Counted>> group,
                OutputEmitter* out, TaskContext*) override {
      size_t seen = largest_group.load();
      while (group.size() > seen &&
             !largest_group.compare_exchange_weak(seen, group.size())) {
      }
      values_reduced += group.size();
      out->Emit(std::to_string(key) + "\t" + std::to_string(group.size()));
    }
  };
  spec.reducer_factory = [] { return std::make_unique<CountingReducer>(); };

  Job<uint64_t, Counted> job(&dfs, std::move(spec));
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ASSERT_EQ(values_reduced.load(), kLines);
  ASSERT_EQ(largest_group.load(), kLines / kKeys);
  // One partition: every map-side spill is one run of it.
  const uint64_t runs = metrics->spill_count;
  ASSERT_GE(runs, 100u);
  EXPECT_EQ(metrics->merge_passes, 1u);
  EXPECT_LE(Counted::Peak(),
            static_cast<int64_t>(runs + largest_group.load() + 2))
      << "runs=" << runs << " largest group=" << largest_group.load();
}

// A block whose frame is sound but whose payload ends mid-record fails
// only when its cursor reaches the damage: the merge returns DataLoss,
// and every group it handed out ended before the damage.
TEST(SpillShuffleTest, MergerStopsAtTruncatedBlockWithDataLoss) {
  using Pair = std::pair<std::string, uint64_t>;
  std::vector<Pair> pairs;
  for (int k = 1; k <= 6; ++k) pairs.emplace_back("key" + std::to_string(k), k);
  CodecScratch scratch;
  std::string intact;
  uint64_t logical = 0;
  EncodeRunBlock(BlockCodec::kNone, pairs, &scratch, &intact, &logical);
  // Six 6-byte records framed with their count but only 21 payload bytes:
  // three whole records and half of the fourth.
  std::string payload;
  for (const Pair& pair : pairs) {
    EncodeContent(pair.first, &payload);
    EncodeContent(pair.second, &payload);
  }
  ASSERT_EQ(payload.size(), 36u);
  payload.resize(21);
  for (BlockCodec codec : {BlockCodec::kNone, BlockCodec::kFjlz}) {
    std::string damaged;
    EncodeBlock(codec, pairs.size(), payload, &scratch, &damaged);

    JobSpec<std::string, uint64_t> spec;
    const SpecOrdering<std::string, uint64_t> ordering(&spec);
    RunMerger<std::string, uint64_t> merger(&ordering, {intact, damaged});
    std::vector<std::pair<std::string, size_t>> groups;
    const Status merged =
        merger.ForEachGroup([&groups](std::span<const Pair> group) {
          groups.emplace_back(group.front().first, group.size());
        });
    EXPECT_EQ(merged.code(), StatusCode::kDataLoss)
        << "codec " << static_cast<int>(codec);
    EXPECT_EQ(merged.message(), "truncated record in run block payload");
    // key3's group is still open when the damaged cursor fails to read its
    // fourth record, so only key1 and key2 are handed out.
    EXPECT_EQ(groups, (std::vector<std::pair<std::string, size_t>>{
                          {"key1", 2}, {"key2", 2}}))
        << "codec " << static_cast<int>(codec);
  }
}

// The merge reads both codecs' blocks and breaks key ties toward the
// lower-ranked block.
TEST(SpillShuffleTest, MergerInterleavesBlocksInRankOrder) {
  using Pair = std::pair<uint64_t, uint64_t>;
  CodecScratch scratch;
  std::vector<std::string> blocks(3);
  uint64_t logical = 0;
  EncodeRunBlock(BlockCodec::kFjlz,
                 std::vector<Pair>{{1, 10}, {3, 10}, {3, 11}, {5, 10}},
                 &scratch, &blocks[0], &logical);
  EncodeRunBlock(BlockCodec::kNone, std::vector<Pair>{}, &scratch,
                 &blocks[1], &logical);
  EncodeRunBlock(BlockCodec::kNone, std::vector<Pair>{{1, 20}, {3, 20}},
                 &scratch, &blocks[2], &logical);
  JobSpec<uint64_t, uint64_t> spec;
  const SpecOrdering<uint64_t, uint64_t> ordering(&spec);
  RunMerger<uint64_t, uint64_t> merger(&ordering,
                                       {blocks[0], blocks[1], blocks[2]});
  std::vector<std::vector<Pair>> groups;
  ASSERT_TRUE(merger
                  .ForEachGroup([&groups](std::span<const Pair> group) {
                    groups.emplace_back(group.begin(), group.end());
                  })
                  .ok());
  EXPECT_EQ(groups, (std::vector<std::vector<Pair>>{
                        {{1, 10}, {1, 20}},
                        {{3, 10}, {3, 11}, {3, 20}},
                        {{5, 10}}}));
}

}  // namespace
}  // namespace fj::mr
