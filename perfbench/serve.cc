// Serve workloads: a QueryService over a ServingIndex seeded with 100k
// DBLP-like records, driven by a closed loop of rounds of kOutstanding
// requests, issued and drained on one generator thread.
//
//   serve_read   read-only threshold probes (tau 0.8) whose popularity is
//                Zipf(0.8) over the indexed records, so the 4096-entry LRU
//                cache hits about a third of them and the median probe
//                still misses.
//   serve_churn  15% inserts, 15% removes, 70% probes that never repeat;
//                writes invalidate the cache and the tombstones they leave
//                trigger several compactions per run.
//
// The request stream is a pure function of the seed, so nothing is logged
// per request: the correctness check and the traced run's direct replay
// regenerate it. The benchmark's own memory therefore does not grow with
// the number of requests a run completes, and peak_rss_mb measures the
// system, not the harness.
#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/executor.h"
#include "common/random.h"
#include "data/generator.h"
#include "data/increase.h"
#include "serve/query_service.h"
#include "serve/serving_index.h"

#include "corpus.h"

namespace perfbench {
namespace {

using fj::ppjoin::TokenSetRecord;
using fj::serve::ProbeResult;
using fj::serve::QueryService;
using fj::serve::Request;
using fj::serve::RequestKind;
using fj::serve::ServeResponse;
using fj::serve::ServingIndex;

// 12k base records x10 = 120k token sets; the first 100k are indexed, the
// rest start in serve_churn's insert pool.
constexpr size_t kBase = 12000;
constexpr size_t kFactor = 10;
constexpr size_t kIndexed = 100000;
constexpr double kTau = 0.8;
constexpr double kZipfTheta = 0.8;
constexpr double kInsertFraction = 0.15;
constexpr double kRemoveFraction = 0.15;
constexpr size_t kOutstanding = 4;
constexpr uint64_t kWarmupRequests = 20000;
/// The timed section is cut into this many equal windows, each keeping
/// only its request count and latency median, so the harness logs nothing
/// per request. op_p50_ms is the median of the window medians.
constexpr int kWindows = 20;
/// Every kCheckEvery-th request, if a probe, is re-checked by brute force.
constexpr uint64_t kCheckEvery = 2003;
/// setup_s is the median over this many set-ups.
constexpr int kSetups = 5;
/// Probe rids lie above every record rid, so no probe excludes a record.
constexpr uint64_t kProbeRidBase = uint64_t{1} << 62;
/// The serving thread moves to the next CPU this often (see CpuRotation).
constexpr double kRotateSeconds = 0.1;

/// Moves the calling thread over the CPUs it may run on, one at a time, in
/// turn. On a shared host each CPU's speed rises and falls by up to 30%
/// for seconds at a time, mostly independently of the others, and the
/// scheduler leaves a busy thread on one CPU for seconds. The serve path
/// is single-threaded, so left alone it measures whichever CPU it sits on;
/// rotating samples every CPU alike, as the batch workloads' worker
/// threads do. Restores the thread's CPU set when destroyed. Does nothing
/// when only one CPU is allowed.
class CpuRotation {
 public:
  CpuRotation() : moved_(Clock::now()) {
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) (void)sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Moves to the next CPU when kRotateSeconds have passed since the last
  /// move. Cheap enough to call once per request.
  void Tick() {
    if (cpus_.size() < 2) return;
    const Clock::time_point now = Clock::now();
    if (SecondsBetween(moved_, now) < kRotateSeconds) return;
    moved_ = now;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
  size_t next_ = 0;
  Clock::time_point moved_;
};

/// One request of the stream, compactly: the token set it carries (index
/// into ServeState::sets) and its rid.
struct StreamRequest {
  RequestKind kind = RequestKind::kProbeThreshold;
  uint32_t set = 0;
  uint64_t rid = 0;
};

/// The seeded request generator. For serve_churn it also tracks which
/// token sets are live, so writes always succeed.
class RequestStream {
 public:
  RequestStream(bool churn, size_t total_sets, uint64_t seed)
      : churn_(churn), rng_(seed), zipf_(kIndexed, kZipfTheta),
        live_mask_(total_sets, 0) {
    for (uint32_t i = 0; i < kIndexed; ++i) {
      live_.push_back(i);
      live_mask_[i] = 1;
    }
    for (uint32_t i = kIndexed; i < total_sets; ++i) pool_.push_back(i);
    popularity_ = live_;
    rng_.Shuffle(&popularity_);  // which records the Zipf ranks land on
  }

  /// 1 for each token set live after the requests generated so far.
  const std::vector<char>& live_mask() const { return live_mask_; }

  StreamRequest Next() {
    StreamRequest r;
    if (!churn_) {
      r.set = popularity_[zipf_.Sample(&rng_)];
      r.rid = kProbeRidBase;  // repeated probes are identical: cacheable
      return r;
    }
    const double u = rng_.NextDouble();
    if (u < kInsertFraction && !pool_.empty()) {
      r.kind = RequestKind::kInsert;
      r.set = Take(&pool_);
      live_.push_back(r.set);
      live_mask_[r.set] = 1;
    } else if (u < kInsertFraction + kRemoveFraction && !live_.empty()) {
      r.kind = RequestKind::kRemove;
      r.set = Take(&live_);
      live_mask_[r.set] = 0;
      pool_.push_back(r.set);
    } else {
      r.set = static_cast<uint32_t>(rng_.NextBelow(live_mask_.size()));
      r.rid = kProbeRidBase + ++probes_;  // never repeats: uncacheable
    }
    return r;
  }

 private:
  /// Removes and returns a random element of `from`.
  uint32_t Take(std::vector<uint32_t>* from) {
    const size_t at = rng_.NextBelow(from->size());
    const uint32_t v = (*from)[at];
    (*from)[at] = from->back();
    from->pop_back();
    return v;
  }

  bool churn_;
  fj::Rng rng_;
  fj::ZipfSampler zipf_;
  uint64_t probes_ = 0;
  std::vector<uint32_t> live_, pool_, popularity_;
  std::vector<char> live_mask_;
};

struct ServeState {
  bool churn = false;
  uint64_t seed = 0;
  std::vector<TokenSetRecord> sets;
  std::unique_ptr<ServingIndex> index;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<RequestStream> stream;

  /// A fresh copy of the stream positioned where the timed section starts.
  RequestStream TimedStream() const {
    RequestStream stream(churn, sets.size(), seed);
    for (uint64_t i = 0; i < kWarmupRequests; ++i) stream.Next();
    return stream;
  }
};

Request ToRequest(const ServeState& st, const StreamRequest& r) {
  Request request;
  request.kind = r.kind;
  request.threshold = kTau;
  if (r.kind == RequestKind::kRemove) {
    request.rid = st.sets[r.set].rid;
  } else {
    request.record = st.sets[r.set];
    if (r.kind == RequestKind::kProbeThreshold) request.record.rid = r.rid;
  }
  return request;
}

/// The closed loop: rounds of kOutstanding requests, each round enqueued
/// and then drained by the service on the generator thread (the service
/// runs with auto_drain off), and every finished request folded into
/// per-window statistics. No thread hand-off or wake-up lies on the
/// request path, so the run times the service, not the scheduler.
class ClosedLoop {
 public:
  struct Window {
    double seconds = 0;
    uint64_t served = 0;  ///< requests that finished OK
    double p50_ms = 0;    ///< their median latency
  };

  /// Issues rounds until `seconds` pass (or `max_requests` are issued).
  /// With `keep_by_kind`, also keeps every latency split into probes and
  /// writes.
  void Run(ServeState* st, CpuRotation* rotation, double seconds,
           uint64_t max_requests, bool keep_by_kind) {
    keep_by_kind_ = keep_by_kind;
    const Clock::time_point start = Clock::now();
    Clock::time_point window_start = start;
    for (;;) {
      const Clock::time_point now = Clock::now();
      const double elapsed = SecondsBetween(start, now);
      if (issued_ >= max_requests || elapsed >= seconds) break;
      if (elapsed >= seconds * static_cast<double>(windows_.size() + 1) / kWindows) {
        CloseWindow(SecondsBetween(window_start, now));
        window_start = now;
      }
      rotation->Tick();
      const uint64_t first = issued_;
      while (issued_ - first < kOutstanding && issued_ < max_requests) {
        Issue(st, issued_++);
      }
      st->service->DrainAll();
      for (uint64_t id = first; id < issued_; ++id) Harvest(id);
    }
    CloseWindow(SecondsBetween(window_start, Clock::now()));
  }

  uint64_t issued() const { return issued_; }
  uint64_t failed() const { return failed_; }
  const std::vector<Window>& windows() const { return windows_; }
  const std::vector<double>& probe_us() const { return probe_us_; }
  const std::vector<double>& write_us() const { return write_us_; }
  /// Answers of the sampled probes, by request id.
  const std::map<uint64_t, std::vector<ProbeResult>>& answers() const {
    return answers_;
  }

 private:
  struct Slot {
    RequestKind kind = RequestKind::kProbeThreshold;
    double latency_s = 0;
    bool ok = false;
    std::vector<ProbeResult>* answer = nullptr;
  };

  /// Enqueues the next request of the stream as request `id`.
  void Issue(ServeState* st, uint64_t id) {
    const StreamRequest r = st->stream->Next();
    Slot* slot = &slots_[id % kOutstanding];
    slot->kind = r.kind;
    slot->ok = false;
    slot->answer = nullptr;
    if (r.kind == RequestKind::kProbeThreshold && id % kCheckEvery == 0) {
      slot->answer = &answers_[id];
    }
    // A rejected request never runs its callback and stays failed.
    (void)st->service->Enqueue(ToRequest(*st, r), [slot](ServeResponse resp) {
      slot->latency_s = resp.latency_seconds;
      slot->ok = resp.status.ok();
      if (slot->answer != nullptr) *slot->answer = std::move(resp.results);
    });
  }

  /// Folds finished request `id` into the current window.
  void Harvest(uint64_t id) {
    const Slot& slot = slots_[id % kOutstanding];
    if (!slot.ok) {
      ++failed_;
      return;
    }
    window_ms_.push_back(slot.latency_s * 1e3);
    if (keep_by_kind_) {
      (slot.kind == RequestKind::kProbeThreshold ? probe_us_ : write_us_)
          .push_back(slot.latency_s * 1e6);
    }
  }

  /// Summarizes the open window, then starts the next one.
  void CloseWindow(double seconds) {
    windows_.push_back(Window{seconds, window_ms_.size(), Median(window_ms_)});
    window_ms_.clear();
  }

  std::array<Slot, kOutstanding> slots_;
  uint64_t issued_ = 0;
  uint64_t failed_ = 0;
  bool keep_by_kind_ = false;
  std::vector<Window> windows_;
  std::vector<double> window_ms_;  ///< latencies of the open window
  std::vector<double> probe_us_, write_us_;
  std::map<uint64_t, std::vector<ProbeResult>> answers_;
};

bool SetUp(const Options& opts, fj::Executor* executor, CpuRotation* rotation,
           ServeState* st) {
  auto grown = fj::data::IncreaseDataset(
      fj::data::GenerateRecords(fj::data::DblpLikeConfig(kBase, opts.seed)),
      kFactor);
  if (!grown.ok()) return false;
  st->churn = opts.workload == "serve_churn";
  st->seed = opts.seed + 7;
  st->sets = TokenSets(*grown, OrderingOf(*grown));
  if (st->sets.size() < kIndexed) return false;
  st->index = std::make_unique<ServingIndex>();  // floor 0.5 by default
  for (size_t i = 0; i < kIndexed; ++i) {
    rotation->Tick();
    if (!st->index->Insert(st->sets[i]).ok()) return false;
  }
  fj::serve::QueryServiceOptions service_options;
  service_options.auto_drain = false;  // ClosedLoop drains on its own thread
  st->service = std::make_unique<QueryService>(st->index.get(), executor,
                                               service_options);
  st->stream =
      std::make_unique<RequestStream>(st->churn, st->sets.size(), st->seed);
  ClosedLoop warmup;
  warmup.Run(st, rotation, 1e9, kWarmupRequests, false);
  return warmup.failed() == 0;
}

/// Re-checks the sampled probe answers against a brute-force scan of the
/// records live when each probe ran, regenerating the timed stream to
/// track that live set. Returns the number of wrong answers.
uint64_t CheckAnswers(const ServeState& st, const ClosedLoop& loop,
                      uint64_t corrupt_every) {
  const fj::sim::SimilaritySpec spec(fj::sim::SimilarityFunction::kJaccard, kTau);
  RequestStream stream = st.TimedStream();
  uint64_t wrong = 0;
  uint64_t checked = 0;
  uint64_t next = 0;
  for (const auto& [id, answer] : loop.answers()) {
    for (; next < id; ++next) stream.Next();
    const StreamRequest r = stream.Next();  // the probe itself
    ++next;
    std::vector<ProbeResult> got = answer;
    if (corrupt_every > 0 && ++checked % corrupt_every == 0) {
      got.empty() ? got.push_back(ProbeResult{1, 1.0}) : got.pop_back();
    }
    const TokenSetRecord& probe = st.sets[r.set];
    const std::vector<char>& live = stream.live_mask();
    std::vector<ProbeResult> expected;
    const double lo = kTau * static_cast<double>(probe.size());
    const double hi = static_cast<double>(probe.size()) / kTau;
    for (size_t i = 0; i < st.sets.size(); ++i) {
      const TokenSetRecord& y = st.sets[i];
      const double len = static_cast<double>(y.size());
      if (!live[i] || len < lo - 1e-9 || len > hi + 1e-9) continue;
      if (spec.Satisfies(probe.tokens, y.tokens)) {
        expected.push_back(ProbeResult{y.rid, spec.Similarity(probe.tokens, y.tokens)});
      }
    }
    std::sort(expected.begin(), expected.end(),
              [](const ProbeResult& a, const ProbeResult& b) { return a.rid < b.rid; });
    bool same = got.size() == expected.size();
    for (size_t i = 0; same && i < got.size(); ++i) {
      same = got[i].rid == expected[i].rid &&
             std::abs(got[i].similarity - expected[i].similarity) < 1e-9;
    }
    if (!same) ++wrong;
  }
  return wrong;
}

/// Traced runs: replays the whole timed stream, every request the service
/// ran, directly on `replica`, one timed call each. A call that ran a
/// compaction is timed apart from the other writes.
void ReplayDirect(const ServeState& st, uint64_t issued, ServingIndex* replica,
                  CpuRotation* rotation, Report* report) {
  const fj::serve::ServingIndexStats before = replica->stats();
  RequestStream stream = st.TimedStream();
  std::vector<double> probe_us, insert_us, remove_us, compaction_ms;
  std::vector<ProbeResult> results;
  for (uint64_t i = 0; i < issued; ++i) {
    rotation->Tick();
    const StreamRequest r = stream.Next();
    const Request request = ToRequest(st, r);
    const uint64_t compactions = replica->stats().compactions;
    const Clock::time_point start = Clock::now();
    fj::Status status;
    switch (r.kind) {
      case RequestKind::kInsert:
        status = replica->Insert(request.record);
        break;
      case RequestKind::kRemove:
        status = replica->Remove(request.rid);
        break;
      default:
        results.clear();
        status = replica->ProbeThreshold(request.record, kTau, &results);
        break;
    }
    const double us = SecondsBetween(start, Clock::now()) * 1e6;
    if (!status.ok()) report->Fail("direct index call: " + status.ToString());
    if (replica->stats().compactions != compactions) {
      compaction_ms.push_back(us / 1e3);
      continue;
    }
    (r.kind == RequestKind::kInsert   ? insert_us
     : r.kind == RequestKind::kRemove ? remove_us
                                      : probe_us)
        .push_back(us);
  }
  const fj::serve::ServingIndexStats& after = replica->stats();
  const double probes = static_cast<double>(after.probes - before.probes);
  const double candidates = static_cast<double>(after.candidates - before.candidates);
  const double found = static_cast<double>(after.results - before.results);
  report->metrics["serve.index.probe_p50_us"] = Median(probe_us);
  report->metrics["serve.index.probe_p99_us"] = Quantile(probe_us, 0.99);
  report->metrics["serve.index.insert_p50_us"] = Median(insert_us);
  report->metrics["serve.index.remove_p50_us"] = Median(remove_us);
  report->metrics["serve.index.compaction_ms"] = Median(compaction_ms);
  report->metrics["serve.index.candidates_per_probe"] =
      probes > 0 ? candidates / probes : 0;
  report->metrics["serve.index.results_per_candidate"] =
      candidates > 0 ? found / candidates : 0;
}

struct WindowStats {
  double throughput = 0;  ///< requests per second
  double p50_ms = 0;
};

/// Requests served per second over the whole timed section, slow windows
/// and compaction stalls included, and the median of the window medians.
WindowStats Windowed(const ClosedLoop& loop) {
  double seconds = 0;
  double served = 0;
  std::vector<double> p50;
  for (const ClosedLoop::Window& w : loop.windows()) {
    seconds += w.seconds;
    served += static_cast<double>(w.served);
    if (w.served > 0) p50.push_back(w.p50_ms);
  }
  return WindowStats{seconds > 0 ? served / seconds : 0, Median(p50)};
}

}  // namespace

bool RunServe(const Options& opts, Tracer* tracer, Report* report) {
  // The service needs an executor, but with auto_drain off it never
  // submits to it: every request runs on the generator thread.
  fj::Executor executor(1);
  CpuRotation rotation;
  ServeState st;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    st = ServeState{};
    Tracer::Scope span(tracer, "setup");
    if (!SetUp(opts, &executor, &rotation, &st)) return false;
    setup_s.push_back(span.Elapsed());
  }

  std::unique_ptr<ServingIndex> replica;
  if (tracer->enabled()) replica = std::make_unique<ServingIndex>(*st.index);
  const fj::serve::QueryServiceStats service_before = st.service->stats();
  const fj::serve::ServingIndexStats index_before = st.index->stats();
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "perfbench: cannot reset the peak RSS; "
                 "peak_rss_mb covers the whole process\n");
  }

  ClosedLoop loop;
  {
    Tracer::Scope span(tracer, "serve.closed_loop");
    loop.Run(&st, &rotation, opts.seconds, UINT64_MAX, tracer->enabled());
  }
  const fj::serve::QueryServiceStats service_after = st.service->stats();
  const fj::serve::ServingIndexStats& index_after = st.index->stats();

  report->attempted = loop.issued();
  report->failed = loop.failed();
  if (loop.failed() > 0) {
    report->Fail(std::to_string(loop.failed()) + " requests were not served");
  }
  {
    Tracer::Scope span(tracer, "check.brute_force");
    const uint64_t wrong = CheckAnswers(st, loop, opts.corrupt_every);
    if (wrong > 0) {
      report->failed += wrong;
      report->Fail(std::to_string(wrong) + " sampled probe answers differ "
                   "from a brute-force scan");
    }
  }
  if (report->attempted == report->failed) return false;

  const WindowStats windows = Windowed(loop);
  if (!tracer->enabled()) {
    report->metrics["throughput"] = windows.throughput;
    report->metrics["op_p50_ms"] = windows.p50_ms;
    report->metrics["setup_s"] = Median(setup_s);
    report->metrics["peak_rss_mb"] = PeakRssMb();
    report->metrics["success_rate"] =
        static_cast<double>(report->attempted - report->failed) /
        static_cast<double>(report->attempted);
    return true;
  }

  {
    Tracer::Scope span(tracer, "serve.index.replay");
    ReplayDirect(st, loop.issued(), replica.get(), &rotation, report);
  }
  const double completed =
      static_cast<double>(service_after.completed - service_before.completed);
  const double batches =
      static_cast<double>(service_after.batches - service_before.batches);
  const double probes = static_cast<double>(loop.probe_us().size());
  report->metrics["serve.service.probe_p50_us"] = Median(loop.probe_us());
  report->metrics["serve.service.probe_p99_us"] = Quantile(loop.probe_us(), 0.99);
  report->metrics["serve.service.write_p50_us"] = Median(loop.write_us());
  report->metrics["serve.service.overhead_p50_us"] =
      Median(loop.probe_us()) - report->metrics["serve.index.probe_p50_us"];
  report->metrics["serve.service.batch_mean"] = batches > 0 ? completed / batches : 0;
  report->metrics["serve.cache.hit_rate"] =
      probes > 0 ? static_cast<double>(service_after.cache_hits -
                                       service_before.cache_hits) /
                       probes
                 : 0;
  report->metrics["serve.cache.stale"] =
      static_cast<double>(service_after.cache_stale - service_before.cache_stale);
  report->metrics["serve.index.compactions"] =
      static_cast<double>(index_after.compactions - index_before.compactions);
  report->metrics["serve.index.tombstones_purged"] = static_cast<double>(
      index_after.tombstones_purged - index_before.tombstones_purged);
  report->metrics["trace.op_p50_ms"] = windows.p50_ms;

  std::vector<double> tokenize_s;
  auto records = fj::data::IncreaseDataset(
      fj::data::GenerateRecords(fj::data::DblpLikeConfig(kBase, opts.seed)),
      kFactor);
  if (!records.ok()) return false;
  const fj::text::TokenOrdering ordering = OrderingOf(*records);
  for (int i = 0; i < 3; ++i) {
    Tracer::Scope span(tracer, "text.tokenize");
    const size_t n = TokenSets(*records, ordering).size();
    tokenize_s.push_back(span.Elapsed());
    if (n != st.sets.size()) report->Fail("direct tokenizer call");
  }
  report->metrics["text.tokenize_s"] = Median(tokenize_s);
  return true;
}

}  // namespace perfbench
