// QueryService: bounded-queue admission control, batching, FIFO execution,
// and the epoch-validated LRU result cache.
#include "serve/query_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/executor.h"

namespace fj::serve {
namespace {

TokenSetRecord MakeRecord(uint64_t rid,
                          std::initializer_list<sim::TokenId> ids) {
  TokenSetRecord record{rid, ids};
  std::sort(record.tokens.begin(), record.tokens.end());
  return record;
}

Request InsertReq(uint64_t rid, std::initializer_list<sim::TokenId> ids) {
  Request request;
  request.kind = RequestKind::kInsert;
  request.record = MakeRecord(rid, ids);
  return request;
}

Request RemoveReq(uint64_t rid) {
  Request request;
  request.kind = RequestKind::kRemove;
  request.rid = rid;
  return request;
}

Request ProbeReq(std::initializer_list<sim::TokenId> ids, double tau) {
  Request request;
  request.kind = RequestKind::kProbeThreshold;
  request.record = MakeRecord(~uint64_t{0}, ids);
  request.threshold = tau;
  return request;
}

TEST(QueryServiceTest, ExecuteSyncRoundTrip) {
  ServingIndex index;
  Executor executor(2);
  QueryService service(&index, &executor);
  EXPECT_TRUE(service.ExecuteSync(InsertReq(1, {1, 2, 3, 4})).status.ok());
  EXPECT_TRUE(service.ExecuteSync(InsertReq(2, {1, 2, 3, 9})).status.ok());
  auto response = service.ExecuteSync(ProbeReq({1, 2, 3, 4}, 0.5));
  ASSERT_TRUE(response.status.ok());
  ASSERT_EQ(response.results.size(), 2u);
  EXPECT_EQ(response.results[0].rid, 1u);
  EXPECT_DOUBLE_EQ(response.results[0].similarity, 1.0);
  EXPECT_EQ(response.results[1].rid, 2u);
  EXPECT_DOUBLE_EQ(response.results[1].similarity, 0.6);
  EXPECT_GT(response.latency_seconds, 0.0);
  // Index errors come back through the response, not the admission path.
  auto bad = service.ExecuteSync(RemoveReq(42));
  EXPECT_EQ(bad.status.code(), StatusCode::kNotFound);
}

TEST(QueryServiceTest, CallbacksRunInFifoOrder) {
  ServingIndex index;
  Executor executor(4);
  std::vector<uint64_t> completions;
  Mutex mu{"test.completions"};
  {
    QueryService service(&index, &executor);
    for (uint64_t i = 0; i < 200; ++i) {
      Status status = service.Enqueue(
          InsertReq(i, {i, i + 1, i + 2}), [&, i](ServeResponse response) {
            EXPECT_TRUE(response.status.ok());
            MutexLock lock(&mu);
            completions.push_back(i);
          });
      ASSERT_TRUE(status.ok());
    }
    service.Flush();
  }
  ASSERT_EQ(completions.size(), 200u);
  EXPECT_TRUE(std::is_sorted(completions.begin(), completions.end()));
}

TEST(QueryServiceTest, FlushWaitsForEverything) {
  ServingIndex index;
  Executor executor(2);
  QueryService service(&index, &executor);
  std::atomic<size_t> done{0};
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(service
                    .Enqueue(InsertReq(i, {i, i + 1}),
                             [&](ServeResponse) { ++done; })
                    .ok());
  }
  service.Flush();
  EXPECT_EQ(done.load(), 64u);
  EXPECT_EQ(index.live_records(), 64u);
  auto stats = service.stats();
  EXPECT_EQ(stats.completed, 64u);
  EXPECT_EQ(stats.rejected(), 0u);
  EXPECT_EQ(stats.write_latency.count(), 64u);
}

TEST(QueryServiceTest, AdmissionRejectsOnQueueDepth) {
  ServingIndex index;
  Executor executor(1);
  QueryServiceOptions options;
  options.max_queue_depth = 8;
  options.auto_drain = false;  // fill the queue deterministically
  QueryService service(&index, &executor, options);
  size_t accepted = 0, rejected = 0;
  for (uint64_t i = 0; i < 20; ++i) {
    Status status =
        service.Enqueue(InsertReq(i, {i, i + 1}), [](ServeResponse) {});
    if (status.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
      EXPECT_NE(status.message().find("queue is full"), std::string::npos);
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, 8u);
  EXPECT_EQ(rejected, 12u);
  auto stats = service.stats();
  EXPECT_EQ(stats.rejected_queue_depth, 12u);
  EXPECT_EQ(stats.accepted, 8u);
  // Draining frees the slots; admission recovers.
  EXPECT_EQ(service.DrainAll(), 8u);
  EXPECT_TRUE(
      service.Enqueue(InsertReq(100, {1, 2}), [](ServeResponse) {}).ok());
  service.DrainAll();
}

TEST(QueryServiceTest, AdmissionRejectsOnBytesInFlight) {
  ServingIndex index;
  Executor executor(1);
  QueryServiceOptions options;
  options.max_queue_depth = 1000;
  options.max_bytes_in_flight = 4096;
  options.auto_drain = false;
  QueryService service(&index, &executor, options);
  // Each request carries a large token payload.
  Request big;
  big.kind = RequestKind::kProbeThreshold;
  big.record.rid = ~uint64_t{0};
  for (sim::TokenId t = 0; t < 200; ++t) big.record.tokens.push_back(t);
  size_t rejected = 0;
  for (int i = 0; i < 20; ++i) {
    Status status = service.Enqueue(big, [](ServeResponse) {});
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
      EXPECT_NE(status.message().find("bytes"), std::string::npos);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(service.stats().rejected_bytes, rejected);
  service.DrainAll();
  // Completion released the bytes.
  EXPECT_TRUE(service.Enqueue(big, [](ServeResponse) {}).ok());
  service.DrainAll();
}

TEST(QueryServiceTest, RejectedRequestsNeverRunTheirCallback) {
  ServingIndex index;
  Executor executor(1);
  QueryServiceOptions options;
  options.max_queue_depth = 1;
  options.auto_drain = false;
  QueryService service(&index, &executor, options);
  std::atomic<int> calls{0};
  ASSERT_TRUE(service
                  .Enqueue(InsertReq(1, {1, 2}),
                           [&](ServeResponse) { ++calls; })
                  .ok());
  ASSERT_FALSE(service
                   .Enqueue(InsertReq(2, {1, 2}),
                            [&](ServeResponse) { ++calls; })
                   .ok());
  service.DrainAll();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(index.live_records(), 1u);
}

TEST(QueryServiceTest, BatchingDrainsManyPerAcquisition) {
  ServingIndex index;
  Executor executor(1);
  QueryServiceOptions options;
  options.max_batch = 16;
  options.auto_drain = false;
  QueryService service(&index, &executor, options);
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        service.Enqueue(InsertReq(i, {i, i + 1}), [](ServeResponse) {}).ok());
  }
  EXPECT_EQ(service.DrainAll(), 50u);
  auto stats = service.stats();
  // 50 requests at batch 16 -> 16+16+16+2 = 4 batches.
  EXPECT_EQ(stats.batches, 4u);
  EXPECT_EQ(stats.batch_size.count(), 4u);
  EXPECT_NEAR(stats.batch_size.max_seconds() * 1e9, 16.0, 1.0);
}

TEST(QueryServiceTest, CacheHitsRepeatProbesAndInvalidatesOnWrite) {
  ServingIndex index;
  Executor executor(2);
  QueryService service(&index, &executor);
  ASSERT_TRUE(service.ExecuteSync(InsertReq(1, {1, 2, 3, 4})).status.ok());

  auto first = service.ExecuteSync(ProbeReq({1, 2, 3, 4}, 0.5));
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);
  auto second = service.ExecuteSync(ProbeReq({1, 2, 3, 4}, 0.5));
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.results, first.results);
  // A different threshold is a different cache entry.
  auto other = service.ExecuteSync(ProbeReq({1, 2, 3, 4}, 0.9));
  EXPECT_FALSE(other.cache_hit);

  // Any write moves the epoch: the cached answer would now be wrong.
  ASSERT_TRUE(service.ExecuteSync(InsertReq(2, {1, 2, 3, 9})).status.ok());
  auto after_write = service.ExecuteSync(ProbeReq({1, 2, 3, 4}, 0.5));
  ASSERT_TRUE(after_write.status.ok());
  EXPECT_FALSE(after_write.cache_hit);
  ASSERT_EQ(after_write.results.size(), 2u);  // sees the new record
  auto stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_GE(stats.cache_stale, 1u);
}

TEST(QueryServiceTest, CompactionDoesNotInvalidateTheCache) {
  ServingIndex index;
  Executor executor(2);
  QueryService service(&index, &executor);
  ASSERT_TRUE(service.ExecuteSync(InsertReq(1, {1, 2, 3})).status.ok());
  ASSERT_TRUE(service.ExecuteSync(InsertReq(2, {1, 2, 3})).status.ok());
  ASSERT_TRUE(service.ExecuteSync(InsertReq(3, {7, 8, 9})).status.ok());
  ASSERT_TRUE(service.ExecuteSync(RemoveReq(3)).status.ok());
  auto first = service.ExecuteSync(ProbeReq({1, 2, 3}, 0.5));
  ASSERT_TRUE(first.status.ok());
  service.Flush();
  index.CompactNow();  // answers unchanged, epoch unchanged
  auto second = service.ExecuteSync(ProbeReq({1, 2, 3}, 0.5));
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.results, first.results);
}

TEST(QueryServiceTest, CacheCapacityZeroDisablesCaching) {
  ServingIndex index;
  Executor executor(1);
  QueryServiceOptions options;
  options.cache_capacity = 0;
  QueryService service(&index, &executor, options);
  ASSERT_TRUE(service.ExecuteSync(InsertReq(1, {1, 2, 3})).status.ok());
  EXPECT_FALSE(service.ExecuteSync(ProbeReq({1, 2, 3}, 0.5)).cache_hit);
  EXPECT_FALSE(service.ExecuteSync(ProbeReq({1, 2, 3}, 0.5)).cache_hit);
  auto stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);  // lookups are skipped entirely
}

TEST(QueryServiceTest, CacheEvictsLeastRecentlyUsed) {
  ServingIndex index;
  Executor executor(1);
  QueryServiceOptions options;
  options.cache_capacity = 2;
  QueryService service(&index, &executor, options);
  ASSERT_TRUE(service.ExecuteSync(InsertReq(1, {1, 2, 3})).status.ok());
  EXPECT_FALSE(service.ExecuteSync(ProbeReq({1, 2, 3}, 0.5)).cache_hit);
  EXPECT_FALSE(service.ExecuteSync(ProbeReq({1, 2, 3}, 0.6)).cache_hit);
  EXPECT_FALSE(service.ExecuteSync(ProbeReq({1, 2, 3}, 0.7)).cache_hit);
  // 0.5 was evicted (capacity 2, LRU); 0.6 and 0.7 survive.
  EXPECT_TRUE(service.ExecuteSync(ProbeReq({1, 2, 3}, 0.7)).cache_hit);
  EXPECT_TRUE(service.ExecuteSync(ProbeReq({1, 2, 3}, 0.6)).cache_hit);
  EXPECT_FALSE(service.ExecuteSync(ProbeReq({1, 2, 3}, 0.5)).cache_hit);
}

TEST(QueryServiceTest, TopKThroughTheService) {
  ServingIndex index;
  Executor executor(2);
  QueryService service(&index, &executor);
  ASSERT_TRUE(service.ExecuteSync(InsertReq(1, {1, 2, 3, 4})).status.ok());
  ASSERT_TRUE(service.ExecuteSync(InsertReq(2, {1, 2, 3, 9})).status.ok());
  ASSERT_TRUE(service.ExecuteSync(InsertReq(3, {1, 2, 8, 9})).status.ok());
  Request request;
  request.kind = RequestKind::kProbeTopK;
  request.record = MakeRecord(~uint64_t{0}, {1, 2, 3, 4});
  request.top_k = 2;
  auto response = service.ExecuteSync(request);
  ASSERT_TRUE(response.status.ok());
  ASSERT_EQ(response.results.size(), 2u);
  EXPECT_EQ(response.results[0].rid, 1u);
  EXPECT_EQ(response.results[1].rid, 2u);
  // TopK answers cache too, keyed on k rather than threshold.
  EXPECT_TRUE(service.ExecuteSync(request).cache_hit);
  request.top_k = 3;
  EXPECT_FALSE(service.ExecuteSync(request).cache_hit);
}

TEST(QueryServiceTest, ConcurrentEnqueueFromManyThreadsCompletes) {
  ServingIndex index;
  Executor executor(4);
  QueryServiceOptions options;
  options.max_queue_depth = 100000;
  QueryService service(&index, &executor, options);
  // Seed, then hammer probes from executor tasks (any-thread enqueue).
  for (uint64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        service.ExecuteSync(InsertReq(i, {i, i + 1, i + 2})).status.ok());
  }
  std::atomic<size_t> done{0};
  std::atomic<size_t> accepted{0};
  {
    TaskGroup group(&executor);
    for (int t = 0; t < 8; ++t) {
      group.Spawn([&] {
        for (uint64_t i = 0; i < 100; ++i) {
          Request probe = ProbeReq({i % 50, i % 50 + 1, i % 50 + 2}, 0.5);
          if (service.Enqueue(probe, [&](ServeResponse response) {
                         EXPECT_TRUE(response.status.ok());
                         ++done;
                       })
                  .ok()) {
            ++accepted;
          }
        }
      });
    }
    ASSERT_TRUE(group.Wait().ok());
  }
  service.Flush();
  EXPECT_EQ(done.load(), accepted.load());
  EXPECT_EQ(accepted.load(), 800u);
  auto stats = service.stats();
  EXPECT_EQ(stats.completed, 850u);
  EXPECT_GT(stats.cache_hits, 0u);  // repeated probes hit
}

TEST(QueryServiceTest, AdmissionRacingCompactionKeepsCacheEpochStable) {
  // Producers keep enqueuing probes while the owner thread runs repeated
  // drain+compact cycles — the serving tier's steady state. The index is
  // single-threaded, so the owner thread makes every index call (no
  // auto-drainer), as fuzzyjoin_serve's command thread does. Compaction
  // rewrites the index arena but MUST NOT advance the write epoch: every
  // cached result stays valid across the race (cache_stale == 0), repeat
  // probes keep hitting, and no accepted request is lost or answered
  // wrong.
  ServingIndex index;
  Executor executor(4);
  QueryServiceOptions options;
  options.max_queue_depth = 100000;
  options.auto_drain = false;
  QueryService service(&index, &executor, options);
  for (uint64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        service.ExecuteSync(InsertReq(i, {i, i + 1, i + 2})).status.ok());
  }
  // Tombstones give the compactor real work to do each cycle.
  for (uint64_t i = 30; i < 40; ++i) {
    ASSERT_TRUE(service.ExecuteSync(RemoveReq(i)).status.ok());
  }
  const uint64_t epoch_before = index.write_epoch();

  std::atomic<size_t> done{0};
  std::atomic<size_t> accepted{0};
  std::atomic<bool> stop{false};
  {
    TaskGroup group(&executor);
    for (int t = 0; t < 3; ++t) {
      group.Spawn([&] {
        // A tight, repeating probe set so the cache is exercised hard.
        for (uint64_t i = 0; i < 200; ++i) {
          Request probe = ProbeReq({i % 10, i % 10 + 1, i % 10 + 2}, 0.5);
          if (service.Enqueue(probe, [&](ServeResponse response) {
                         EXPECT_TRUE(response.status.ok());
                         ++done;
                       })
                  .ok()) {
            ++accepted;
          }
        }
        stop.store(true);
      });
    }
    // The compaction loop races the producers: each cycle drains what was
    // admitted so far, then compacts.
    while (!stop.load()) {
      service.DrainAll();
      index.CompactNow();
    }
    ASSERT_TRUE(group.Wait().ok());
  }
  service.DrainAll();
  index.CompactNow();

  EXPECT_EQ(done.load(), accepted.load());
  EXPECT_EQ(accepted.load(), 600u);
  // The epoch only moves on writes; compaction cycles left it alone, so
  // no cache entry was ever invalidated by the race.
  EXPECT_EQ(index.write_epoch(), epoch_before);
  auto stats = service.stats();
  EXPECT_EQ(stats.cache_stale, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
  // And a probe after the dust settles still hits the pre-race cache.
  auto response = service.ExecuteSync(ProbeReq({0, 1, 2}, 0.5));
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.cache_hit);
}

}  // namespace
}  // namespace fj::serve
