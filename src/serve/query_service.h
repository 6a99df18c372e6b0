// QueryService: the production trimmings around a ServingIndex.
//
// The index itself is single-writer / single-prober (serve/serving_index.h);
// this layer makes it servable under concurrent callers:
//
//   * a bounded FIFO request queue — callers enqueue from any thread and
//     get their response through a completion callback;
//   * admission control — Enqueue REJECTS with a structured
//     ResourceExhausted Status (never blocks, never queues unboundedly)
//     when the queue depth or the queued record bytes would exceed their
//     bounds; shedding load at the door is what keeps p99 bounded;
//   * batching — one drainer task on the PR 6 executor drains up to
//     max_batch requests per queue lock acquisition and executes them
//     back-to-back on a warm index (successive drainer incarnations are
//     serialized by the queue mutex, so the index never sees two threads);
//   * an LRU result cache keyed on (probe signature, threshold/k) — the
//     probe signature is a 64-bit hash of the token set, and entries pin
//     the exact tokens so a collision can never serve a wrong answer.
//     Entries record the index write epoch at compute time and are valid
//     only while the epoch stands: any Insert/Remove invalidates the
//     whole cache at once (stale entries are evicted lazily on touch);
//     compaction does not move the epoch, so caches survive it;
//   * per-request latency (enqueue to completion, queue wait included)
//     recorded into common/latency_histogram.h, probes and writes
//     separately, surfaced through stats() and the driver's --stats.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/executor.h"
#include "common/latency_histogram.h"
#include "common/status.h"
#include "common/sync.h"
#include "serve/serving_index.h"

namespace fj::serve {

enum class RequestKind {
  kProbeThreshold,
  kProbeTopK,
  kInsert,
  kRemove,
};

struct Request {
  RequestKind kind = RequestKind::kProbeThreshold;
  TokenSetRecord record;   ///< probe / insert payload
  double threshold = 0.8;  ///< kProbeThreshold
  size_t top_k = 0;        ///< kProbeTopK
  uint64_t rid = 0;        ///< kRemove
};

struct ServeResponse {
  Status status;
  std::vector<ProbeResult> results;  ///< probes only
  bool cache_hit = false;
  double latency_seconds = 0;  ///< enqueue -> completion, queue wait included
};

struct QueryServiceOptions {
  /// Admission bound on queued requests; Enqueue rejects beyond it.
  size_t max_queue_depth = 1024;
  /// Admission bound on token bytes held by queued requests.
  uint64_t max_bytes_in_flight = 8ull << 20;
  /// Requests drained per queue lock acquisition.
  size_t max_batch = 64;
  /// LRU result-cache entries; 0 disables caching.
  size_t cache_capacity = 4096;
  /// When false, no drainer task is spawned: the owner pumps DrainAll()
  /// itself. Lets tests and benches fill the queue deterministically to
  /// exercise admission control.
  bool auto_drain = true;
};

/// Counter snapshot of one QueryService (histograms included by value so
/// the caller can quantile them without holding the service lock).
struct QueryServiceStats {
  uint64_t accepted = 0;
  uint64_t rejected_queue_depth = 0;
  uint64_t rejected_bytes = 0;
  uint64_t completed = 0;
  uint64_t batches = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_stale = 0;  ///< hits invalidated by a newer write epoch
  uint64_t cache_misses = 0;
  LatencyHistogram probe_latency;
  LatencyHistogram write_latency;
  /// Drained batch sizes (in requests) — the batching effectiveness meter.
  LatencyHistogram batch_size;

  uint64_t rejected() const { return rejected_queue_depth + rejected_bytes; }
};

class QueryService {
 public:
  /// The service borrows `index` and `executor`; both must outlive it.
  QueryService(ServingIndex* index, Executor* executor,
               QueryServiceOptions options = {});

  /// Drains outstanding work before destruction.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admits `request` into the queue, or rejects it with ResourceExhausted
  /// (queue depth / bytes in flight) without calling `done`. On admission,
  /// `done` runs exactly once, on a drainer thread, in FIFO order.
  Status Enqueue(Request request, std::function<void(ServeResponse)> done);

  /// Enqueue + wait: runs `request` to completion and returns its
  /// response (admission rejections come back as the response status).
  /// Must not be called from an executor worker (it blocks).
  ServeResponse ExecuteSync(Request request);

  /// Blocks until every admitted request has completed.
  void Flush();

  /// Synchronously drains the whole queue on the calling thread
  /// (auto_drain=false mode). Returns the number of requests processed.
  size_t DrainAll();

  QueryServiceStats stats() const;

  const QueryServiceOptions& options() const { return options_; }

 private:
  struct Pending {
    Request request;
    std::function<void(ServeResponse)> done;
    std::chrono::steady_clock::time_point enqueued;
    uint64_t bytes = 0;
  };

  struct CacheEntry {
    uint64_t key = 0;
    Request request;  ///< pinned for exact-match confirmation
    uint64_t epoch = 0;
    std::vector<ProbeResult> results;
  };

  static uint64_t CacheKey(const Request& request);
  static bool SameProbe(const Request& a, const Request& b);

  /// Runs one request against the index (drainer context only).
  ServeResponse Execute(const Request& request);

  /// Cache lookup / store (drainer context only).
  bool CacheLookup(uint64_t key, const Request& request,
                   std::vector<ProbeResult>* results) FJ_EXCLUDES(mu_);
  void CacheStore(uint64_t key, const Request& request,
                  std::vector<ProbeResult> results) FJ_EXCLUDES(mu_);

  /// Body of the drainer task; exits when the queue is empty.
  void DrainLoop();

  /// Takes up to max_batch requests; returns false when the queue is
  /// empty (and, for the drainer, clears drain_scheduled_ under the same
  /// lock so no wakeup is lost).
  bool TakeBatch(std::vector<Pending>* batch, bool drainer);

  void CompleteBatch(std::vector<Pending>* batch);

  ServingIndex* index_;
  Executor* executor_;
  QueryServiceOptions options_;
  TaskGroup group_;

  mutable Mutex mu_{"query_service", lock_rank::kService};
  CondVar idle_cv_;
  std::deque<Pending> queue_ FJ_GUARDED_BY(mu_);
  uint64_t bytes_in_flight_ FJ_GUARDED_BY(mu_) = 0;
  /// Requests taken from the queue, not yet done.
  size_t in_progress_ FJ_GUARDED_BY(mu_) = 0;
  bool drain_scheduled_ FJ_GUARDED_BY(mu_) = false;

  // LRU cache: most-recently-used at the front. Serving tier, ordering
  // never observable (results are per-key).
  std::list<CacheEntry> lru_ FJ_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::list<CacheEntry>::iterator> cache_
      FJ_GUARDED_BY(mu_);

  QueryServiceStats stats_ FJ_GUARDED_BY(mu_);
};

}  // namespace fj::serve
