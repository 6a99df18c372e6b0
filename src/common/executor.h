// The engine's parallel runtime: a persistent work-stealing executor.
//
// One Executor is created per pipeline (JoinConfig::executor) and shared
// by every MapReduce job in it, so jobs stop paying pool construction per
// phase and the workers' caches stay warm across stage boundaries. Task
// *costs* are metered separately (see mapreduce/metrics.h); the executor
// only provides physical concurrency on the host machine — plus the
// measured counters (ExecutorStats) that let benchmarks report real
// wall-clock speedup next to the simulated cluster model.
//
// Scheduling: each worker owns a deque. A worker pushes tasks it spawns
// onto its own deque and pops them LIFO (locality: the freshest task's
// data is hottest); external submissions are distributed round-robin. An
// idle worker steals FIFO from a victim's deque — the oldest task, which
// is both the least cache-warm for the victim and most likely to be a
// large unit of work. Deques are small mutex-protected rings rather than
// lock-free Chase-Lev: task bodies here are whole map/reduce attempts
// (micro- to milliseconds), so queue overhead is noise, and the mutex
// version is straightforwardly TSan-clean.
//
// Work is spawned through a TaskGroup, which tracks completion of a set
// of tasks (including tasks spawned BY those tasks — the scheduler grows
// the graph as map commits release reduce tasks). Rules:
//   - TaskGroup::Wait blocks the CALLING thread only; never call it from
//     inside a task (a worker blocked on Wait could deadlock a 1-worker
//     executor). Spawning from inside a task is fine and lock-cheap.
//   - An exception escaping a task is captured and returned from Wait()
//     as an Internal Status (first one wins); remaining tasks still run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"

namespace fj {

class TaskGroup;

/// Cumulative activity counters of one Executor. Sampled via
/// Executor::stats(); subtract two samples to meter one job or pipeline
/// (JobMetrics::runtime). All counters are monotonic.
struct ExecutorStats {
  /// Tasks run to completion.
  uint64_t tasks_executed = 0;
  /// Tasks an idle worker took from another worker's deque — nonzero
  /// steal traffic is what distinguishes real load balancing from
  /// round-robin luck.
  uint64_t tasks_stolen = 0;
  /// Total seconds workers spent inside task bodies (summed across
  /// workers, so this may exceed wall time; busy / (wall * workers) is
  /// the executor utilization).
  double busy_seconds = 0;
  /// Total seconds tasks sat queued between submission and the start of
  /// execution — the scheduling latency the barrier-per-phase design
  /// paid repeatedly and the task graph is meant to shrink.
  double queue_delay_seconds = 0;
  /// Worker count (not a counter; carried for utilization math).
  size_t workers = 0;

  ExecutorStats operator-(const ExecutorStats& base) const {
    ExecutorStats d = *this;
    d.tasks_executed -= base.tasks_executed;
    d.tasks_stolen -= base.tasks_stolen;
    d.busy_seconds -= base.busy_seconds;
    d.queue_delay_seconds -= base.queue_delay_seconds;
    return d;
  }
};

/// Resolves a requested thread count: 0 means "auto" — use the hardware
/// concurrency of the host (at least 1 when it cannot be determined).
size_t ResolveWorkerCount(size_t requested);

class Executor {
 public:
  /// Returned by CurrentWorkerIndex() on threads that are not workers of
  /// this executor.
  static constexpr size_t kNotAWorker = static_cast<size_t>(-1);

  /// The largest worker count a configuration may request. Config
  /// validation and the tools refuse more, so a mistyped count fails
  /// cleanly instead of starting threads without bound.
  static constexpr size_t kMaxWorkers = 1024;

  /// Spawns ResolveWorkerCount(num_threads) persistent workers.
  explicit Executor(size_t num_threads);

  /// Drains outstanding work, then joins all workers.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Index of the calling worker thread in [0, num_workers()), or
  /// kNotAWorker when called from outside the pool. Lets tasks address
  /// per-worker scratch (one slot per worker, no locking) safely.
  size_t CurrentWorkerIndex() const;

  /// Cumulative counters since construction (sums over workers).
  ExecutorStats stats() const;

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group;
    std::chrono::steady_clock::time_point submitted;
  };

  // One per worker; held by unique_ptr so addresses stay stable.
  struct Worker {
    Mutex mu{"executor.worker", lock_rank::kExecutorQueue};
    std::deque<Task> deque FJ_GUARDED_BY(mu);
    std::thread thread;
    // Relaxed atomics: each is written by one thread at a time and only
    // aggregated in stats(); no ordering is implied or needed.
    std::atomic<uint64_t> tasks_executed{0};
    std::atomic<uint64_t> tasks_stolen{0};
    std::atomic<uint64_t> busy_ns{0};
    std::atomic<uint64_t> queue_delay_ns{0};
  };

  /// Enqueues a task on behalf of `group` (the only submission path —
  /// see TaskGroup::Spawn). Worker threads push to their own deque;
  /// external threads distribute round-robin.
  void Submit(TaskGroup* group, std::function<void()> fn);

  void WorkerLoop(size_t index);
  bool PopLocal(size_t index, Task* out);
  bool Steal(size_t thief, Task* out);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<size_t> submit_cursor_{0};
  /// Tasks submitted but not yet dequeued; the idle-wait predicate.
  std::atomic<size_t> queued_{0};
  Mutex idle_mu_{"executor.idle", lock_rank::kExecutorIdle};
  CondVar idle_cv_;
  bool shutting_down_ FJ_GUARDED_BY(idle_mu_) = false;
};

/// Tracks completion (and the first failure) of a set of tasks spawned on
/// an Executor. See the header comment for the blocking rules.
class TaskGroup {
 public:
  explicit TaskGroup(Executor* executor) : executor_(executor) {}

  /// Blocks until every spawned task finished (best effort; the error, if
  /// any, was already delivered to an earlier Wait call).
  ~TaskGroup() {
    Status ignored = Wait();
    (void)ignored;
  }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `fn`. May be called from inside a task of this group (the
  /// graph grows); must not race with the group's destruction.
  void Spawn(std::function<void()> fn);

  /// Blocks the calling thread until every spawned task (including tasks
  /// spawned by tasks) has finished. Returns OK, or an Internal Status
  /// carrying the first exception a task threw. Returns immediately when
  /// nothing was spawned — submitting zero tasks costs zero threads.
  Status Wait();

 private:
  friend class Executor;

  /// Called by the executor when one task of this group finishes.
  void TaskDone(Status status);

  Executor* executor_;
  std::atomic<size_t> pending_{0};
  Mutex mu_{"taskgroup", lock_rank::kTaskGroup};
  CondVar done_cv_;
  /// First task failure wins.
  Status status_ FJ_GUARDED_BY(mu_);
};

}  // namespace fj
