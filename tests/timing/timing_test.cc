// Wall-clock gates, on inputs large enough that the work outweighs the
// timers. The binary is RUN_SERIAL: no other test competes for its cores.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "common/timer.h"
#include "data/generator.h"
#include "data/increase.h"
#include "fuzzyjoin/fuzzyjoin.h"
#include "serve/query_service.h"
#include "text/token_ordering.h"
#include "text/tokenizer.h"

namespace fj {
namespace {

// DBLP-like records, `base` of them increased `factor` times (seed 42).
std::vector<data::Record> DblpLike(size_t base, size_t factor) {
  auto records = data::IncreaseDataset(
      data::GenerateRecords(data::DblpLikeConfig(base)), factor);
  EXPECT_TRUE(records.ok()) << records.status().ToString();
  return records.ok() ? *std::move(records) : std::vector<data::Record>{};
}

// A warm result cache answers a replayed probe set from the cache, with
// the cold pass's answers, at least 1.1x faster than the cold pass.
TEST(TimingTest, WarmCacheReplayBeatsTheColdPass) {
  // 4,000 records as token sets under their own frequency ordering.
  const auto records = DblpLike(2000, 2);
  text::WordTokenizer tokenizer;
  std::map<std::string, uint64_t> counts;
  std::vector<std::vector<std::string>> tokenized;
  for (const auto& record : records) {
    tokenized.push_back(tokenizer.Tokenize(record.JoinAttribute()));
    for (const auto& token : tokenized.back()) counts[token]++;
  }
  const auto ordering =
      text::TokenOrdering::FromCounts({counts.begin(), counts.end()});
  serve::ServingIndex index;
  std::vector<std::vector<sim::TokenId>> probes;
  for (size_t i = 0; i < records.size(); ++i) {
    probes.push_back(ordering.ToSortedIds(tokenized[i]));
    ASSERT_TRUE(index.Insert({records[i].rid, probes.back()}).ok());
  }

  Executor executor(2);
  serve::QueryServiceOptions options;
  options.cache_capacity = 65536;
  options.max_queue_depth = probes.size() + 1;
  options.max_bytes_in_flight = ~uint64_t{0};
  // Probes every record at the index's floor, tau 0.5, where a probe
  // costs more than a cache hit, and returns the pass's wall seconds.
  std::vector<std::vector<serve::ProbeResult>> answers(probes.size());
  std::vector<char> hits(probes.size());
  auto pass = [&](serve::QueryService& service) {
    WallTimer timer;
    for (size_t i = 0; i < probes.size(); ++i) {
      serve::Request probe{.record = {~uint64_t{0}, probes[i]},
                           .threshold = 0.5};
      auto done = [&answers, &hits, i](serve::ServeResponse response) {
        answers[i] = std::move(response.results);
        hits[i] = response.cache_hit;
      };
      EXPECT_TRUE(service.Enqueue(std::move(probe), done).ok());
    }
    service.Flush();
    return timer.ElapsedSeconds();
  };

  // An untimed pass through a service without a cache first, so that the
  // cold pass pays for its cache misses, not for first touches.
  auto uncached = options;
  uncached.cache_capacity = 0;
  serve::QueryService warmup(&index, &executor, uncached);
  pass(warmup);
  serve::QueryService service(&index, &executor, options);
  const double cold = pass(service);
  const auto cold_answers = answers;
  double warm = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    warm = std::min(warm, pass(service));
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1),
              static_cast<std::ptrdiff_t>(probes.size()));
    EXPECT_EQ(answers, cold_answers);
  }
  EXPECT_LE(warm, cold / 1.1) << "cold " << cold << " s, warm " << warm
                              << " s (best of 3)";
}

// The self-join runs at least 2x faster on 4 executor workers than on 1.
TEST(TimingTest, SelfJoinRunsTwiceAsFastOnFourThreads) {
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "the host has fewer than 4 hardware threads";
  }
  mr::Dfs dfs;
  ASSERT_TRUE(
      dfs.WriteFile("dblp", data::RecordsToLines(DblpLike(500, 2))).ok());

  // BTO-PK-BRJ on a 10-node cluster's task shape. A run's time is its
  // jobs' walls, without the driver's hand-offs.
  auto run_seconds = [&dfs](size_t threads, int rep) {
    join::JoinConfig config;
    config.stage1 = join::Stage1Algorithm::kBTO;
    config.stage2 = join::Stage2Algorithm::kPK;
    config.stage3 = join::Stage3Algorithm::kBRJ;
    config.num_map_tasks = 80;
    config.num_reduce_tasks = 40;
    config.local_threads = threads;
    auto run = join::RunSelfJoin(
        &dfs, "dblp",
        "t" + std::to_string(threads) + "." + std::to_string(rep), config);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    if (!run.ok()) return 0.0;
    double seconds = 0;
    for (const auto& stage : run->stages) {
      for (const auto& job : stage.jobs) seconds += job.wall_seconds;
    }
    return seconds;
  };
  // Best of 7 runs each, alternating, so that both see the same host.
  double serial = std::numeric_limits<double>::infinity();
  double parallel = serial;
  for (int rep = 0; rep < 7; ++rep) {
    serial = std::min(serial, run_seconds(1, rep));
    parallel = std::min(parallel, run_seconds(4, rep));
  }
  EXPECT_GE(serial, 2.0 * parallel)
      << "1 thread " << serial << " s, 4 threads " << parallel << " s";
}

}  // namespace
}  // namespace fj
