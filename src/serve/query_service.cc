#include "serve/query_service.h"

#include <bit>
#include <chrono>
#include <functional>
#include <memory>
#include <utility>

#include "common/hash.h"

namespace fj::serve {
namespace {

uint64_t RequestBytes(const Request& request) {
  return sizeof(Request) +
         request.record.tokens.size() * sizeof(sim::TokenId);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

QueryService::QueryService(ServingIndex* index, Executor* executor,
                           QueryServiceOptions options)
    : index_(index),
      executor_(executor),
      options_(options),
      group_(executor) {}

QueryService::~QueryService() {
  if (options_.auto_drain) {
    Flush();
  } else {
    DrainAll();
  }
  Status ignored = group_.Wait();
  (void)ignored;
}

uint64_t QueryService::CacheKey(const Request& request) {
  uint64_t key = HashBytes(request.record.tokens.data(),
                           request.record.tokens.size() * sizeof(sim::TokenId));
  key = HashCombine(key, request.record.tokens.size());
  key = HashCombine(key, request.record.rid);
  key = HashCombine(key, static_cast<uint64_t>(request.kind));
  key = HashCombine(key, std::bit_cast<uint64_t>(request.threshold));
  key = HashCombine(key, request.top_k);
  return key;
}

bool QueryService::SameProbe(const Request& a, const Request& b) {
  return a.kind == b.kind && a.threshold == b.threshold &&
         a.top_k == b.top_k && a.record.rid == b.record.rid &&
         a.record.tokens == b.record.tokens;
}

Status QueryService::Enqueue(Request request,
                             std::function<void(ServeResponse)> done) {
  const uint64_t bytes = RequestBytes(request);
  bool spawn_drainer = false;
  {
    MutexLock lock(&mu_);
    if (queue_.size() >= options_.max_queue_depth) {
      ++stats_.rejected_queue_depth;
      return Status::ResourceExhausted(
          "serving queue is full (" +
          std::to_string(options_.max_queue_depth) +
          " requests queued); retry with backoff");
    }
    if (bytes_in_flight_ + bytes > options_.max_bytes_in_flight) {
      ++stats_.rejected_bytes;
      return Status::ResourceExhausted(
          "serving queue holds " + std::to_string(bytes_in_flight_) +
          " bytes in flight (limit " +
          std::to_string(options_.max_bytes_in_flight) +
          "); retry with backoff");
    }
    ++stats_.accepted;
    bytes_in_flight_ += bytes;
    queue_.push_back(Pending{std::move(request), std::move(done),
                             std::chrono::steady_clock::now(), bytes});
    if (options_.auto_drain && !drain_scheduled_) {
      drain_scheduled_ = true;
      spawn_drainer = true;
    }
  }
  if (spawn_drainer) {
    group_.Spawn([this] { DrainLoop(); });
  }
  return Status::OK();
}

ServeResponse QueryService::ExecuteSync(Request request) {
  struct SyncState {
    // Unranked local latch: held only around the done flip / final read,
    // never while any other lock is taken.
    Mutex mu{"query_service.sync"};
    CondVar cv;
    bool done FJ_GUARDED_BY(mu) = false;
    ServeResponse response FJ_GUARDED_BY(mu);
  };
  auto state = std::make_shared<SyncState>();
  Status admitted = Enqueue(std::move(request), [state](ServeResponse r) {
    MutexLock lock(&state->mu);
    state->response = std::move(r);
    state->done = true;
    state->cv.NotifyAll();
  });
  if (!admitted.ok()) {
    ServeResponse rejected;
    rejected.status = admitted;
    return rejected;
  }
  if (!options_.auto_drain) DrainAll();
  MutexLock lock(&state->mu);
  while (!state->done) state->cv.Wait(&state->mu);
  return std::move(state->response);
}

void QueryService::Flush() {
  MutexLock lock(&mu_);
  while (!(queue_.empty() && in_progress_ == 0 && !drain_scheduled_)) {
    idle_cv_.Wait(&mu_);
  }
}

size_t QueryService::DrainAll() {
  if (options_.auto_drain) return 0;  // the drainer task owns the index
  size_t processed = 0;
  std::vector<Pending> batch;
  while (TakeBatch(&batch, /*drainer=*/false)) {
    processed += batch.size();
    CompleteBatch(&batch);
  }
  return processed;
}

bool QueryService::TakeBatch(std::vector<Pending>* batch, bool drainer) {
  batch->clear();
  MutexLock lock(&mu_);
  if (queue_.empty()) {
    if (drainer) {
      drain_scheduled_ = false;
      if (in_progress_ == 0) idle_cv_.NotifyAll();
    }
    return false;
  }
  const size_t take = std::min(options_.max_batch, queue_.size());
  for (size_t i = 0; i < take; ++i) {
    batch->push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  in_progress_ += take;
  ++stats_.batches;
  stats_.batch_size.RecordNanos(take);
  return true;
}

void QueryService::CompleteBatch(std::vector<Pending>* batch) {
  uint64_t batch_bytes = 0;
  for (Pending& pending : *batch) {
    ServeResponse response = Execute(pending.request);
    response.latency_seconds = SecondsSince(pending.enqueued);
    batch_bytes += pending.bytes;
    {
      MutexLock lock(&mu_);
      ++stats_.completed;
      switch (pending.request.kind) {
        case RequestKind::kProbeThreshold:
        case RequestKind::kProbeTopK:
          stats_.probe_latency.Record(response.latency_seconds);
          break;
        case RequestKind::kInsert:
        case RequestKind::kRemove:
          stats_.write_latency.Record(response.latency_seconds);
          break;
      }
    }
    if (pending.done) pending.done(std::move(response));
  }
  MutexLock lock(&mu_);
  in_progress_ -= batch->size();
  bytes_in_flight_ -= batch_bytes;
  if (queue_.empty() && in_progress_ == 0) idle_cv_.NotifyAll();
}

void QueryService::DrainLoop() {
  std::vector<Pending> batch;
  while (TakeBatch(&batch, /*drainer=*/true)) {
    CompleteBatch(&batch);
  }
}

bool QueryService::CacheLookup(uint64_t key, const Request& request,
                               std::vector<ProbeResult>* results) {
  MutexLock lock(&mu_);
  auto it = cache_.find(key);
  if (it == cache_.end() || !SameProbe(it->second->request, request)) {
    ++stats_.cache_misses;
    return false;
  }
  if (it->second->epoch != index_->write_epoch()) {
    // A write moved the epoch since this answer was computed: the entry
    // may list vanished records or miss new ones. Drop it.
    ++stats_.cache_stale;
    lru_.erase(it->second);
    cache_.erase(it);
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // touch
  *results = it->second->results;
  ++stats_.cache_hits;
  return true;
}

void QueryService::CacheStore(uint64_t key, const Request& request,
                              std::vector<ProbeResult> results) {
  MutexLock lock(&mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {  // re-computed after staleness or collision
    lru_.erase(it->second);
    cache_.erase(it);
  }
  lru_.push_front(CacheEntry{key, request, index_->write_epoch(),
                             std::move(results)});
  cache_[key] = lru_.begin();
  while (lru_.size() > options_.cache_capacity) {
    cache_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

ServeResponse QueryService::Execute(const Request& request) {
  ServeResponse response;
  switch (request.kind) {
    case RequestKind::kInsert:
      response.status = index_->Insert(request.record);
      return response;
    case RequestKind::kRemove:
      response.status = index_->Remove(request.rid);
      return response;
    case RequestKind::kProbeThreshold:
    case RequestKind::kProbeTopK:
      break;
  }
  const bool cacheable = options_.cache_capacity > 0;
  const uint64_t key = cacheable ? CacheKey(request) : 0;
  if (cacheable && CacheLookup(key, request, &response.results)) {
    response.cache_hit = true;
    return response;
  }
  if (request.kind == RequestKind::kProbeThreshold) {
    response.status = index_->ProbeThreshold(
        request.record, request.threshold, &response.results);
  } else {
    response.status =
        index_->ProbeTopK(request.record, request.top_k, &response.results);
  }
  if (cacheable && response.status.ok()) {
    CacheStore(key, request, response.results);
  }
  return response;
}

QueryServiceStats QueryService::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

}  // namespace fj::serve
