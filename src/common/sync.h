// The tree's synchronization capability layer: every lock in the engine
// is an fj::Mutex (or fj::SharedMutex), never a naked std primitive
// (tools/lint.py no-naked-mutex). The wrapper buys two things the std
// types cannot provide:
//
//   1. Compile-time thread-safety analysis. Every type and method here
//      carries Clang's capability annotations (-Wthread-safety, the
//      model behind absl::Mutex), so "field X is only touched under
//      mu_" is a checked contract, not a comment: FJ_GUARDED_BY(mu_)
//      on the field, FJ_REQUIRES(mu_) on helpers that assume the lock,
//      and the compiler rejects any access path that cannot prove the
//      lock is held. The macros expand to nothing on non-Clang builds;
//      the CI thread-safety job compiles the whole tree with
//      clang++ -Wthread-safety -Wthread-safety-beta -Werror.
//      FJ_NO_THREAD_SAFETY_ANALYSIS is the explicit, grep-able waiver
//      for the rare function the analysis cannot follow — every use
//      needs a comment saying why, mirroring the lint waiver style.
//
//   2. A runtime lock-rank deadlock detector for the dynamic orderings
//      the static pass cannot see. A Mutex may be constructed with a
//      name and a rank from the lock_rank hierarchy below; a
//      thread-local held-lock stack then enforces that ranked locks
//      are acquired in strictly DECREASING rank order (outermost
//      highest). An out-of-order acquire — the building block of every
//      lock-cycle deadlock — aborts immediately, printing both lock
//      names and both acquisition stacks. Checks default on in debug
//      builds (NDEBUG off), off in release; FJ_SYNC_DEADLOCK_CHECKS=0/1
//      overrides either way at process start.
//
// Lock hierarchy (see DESIGN.md "Concurrency discipline"): executor
// deques < TaskGroup < DFS < job state < service. A thread
// holding a service lock may take any lock below it; the reverse
// aborts. Unranked mutexes (the default) are exempt from rank checking
// and MUST be leaves: never acquire another lock while holding one.
#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

// ---------------------------------------------------------------------------
// Clang thread-safety annotation macros. No-ops everywhere else.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define FJ_THREAD_ANNOTATION__(x) __attribute__((x))
#endif
#endif
#ifndef FJ_THREAD_ANNOTATION__
#define FJ_THREAD_ANNOTATION__(x)  // not Clang: annotations compile away
#endif

/// Declares a type to be a lockable capability (mutexes below).
#define FJ_CAPABILITY(x) FJ_THREAD_ANNOTATION__(capability(x))
/// Declares an RAII type that acquires on construction, releases on
/// destruction (MutexLock / ReaderMutexLock).
#define FJ_SCOPED_CAPABILITY FJ_THREAD_ANNOTATION__(scoped_lockable)
/// Field may only be read or written while holding the given mutex.
#define FJ_GUARDED_BY(x) FJ_THREAD_ANNOTATION__(guarded_by(x))
/// Pointer field whose POINTEE is protected by the given mutex.
#define FJ_PT_GUARDED_BY(x) FJ_THREAD_ANNOTATION__(pt_guarded_by(x))
/// Static ordering hints between mutexes (the runtime rank detector
/// covers the dynamic cases these cannot).
#define FJ_ACQUIRED_BEFORE(...) \
  FJ_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define FJ_ACQUIRED_AFTER(...) \
  FJ_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))
/// Caller must already hold the mutex (exclusively / shared).
#define FJ_REQUIRES(...) \
  FJ_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define FJ_REQUIRES_SHARED(...) \
  FJ_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
/// Function acquires / releases the mutex and holds it past return.
#define FJ_ACQUIRE(...) FJ_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define FJ_ACQUIRE_SHARED(...) \
  FJ_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define FJ_RELEASE(...) FJ_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define FJ_RELEASE_SHARED(...) \
  FJ_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
/// Function acquires the mutex iff it returns the given value.
#define FJ_TRY_ACQUIRE(...) \
  FJ_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
/// Caller must NOT hold the mutex (public entry points that lock).
#define FJ_EXCLUDES(...) FJ_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
/// Runtime assertion that the mutex is held; teaches the analysis.
#define FJ_ASSERT_CAPABILITY(x) FJ_THREAD_ANNOTATION__(assert_capability(x))
/// Function returns a reference to the given mutex.
#define FJ_RETURN_CAPABILITY(x) FJ_THREAD_ANNOTATION__(lock_returned(x))
/// The explicit waiver: turns the analysis off for one function. Every
/// use carries a comment explaining why the analysis cannot follow it
/// (same policy as the lint waivers — grep-able, justified, rare).
#define FJ_NO_THREAD_SAFETY_ANALYSIS \
  FJ_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace fj {

// ---------------------------------------------------------------------------
// Lock ranks. Acquisition order is strictly decreasing rank: a thread
// may acquire a ranked mutex only while every ranked mutex it already
// holds has a STRICTLY GREATER rank. Leaves (counters, logging, local
// completion latches) stay unranked and must never wrap another
// acquisition.

namespace lock_rank {
/// Executor idle-protocol mutex (idle_mu_): below the deques so the
/// submit path could nest deque -> idle if it ever needed to.
inline constexpr int kExecutorIdle = 9;
/// Executor per-worker deque mutexes: the innermost lock in the engine.
inline constexpr int kExecutorQueue = 10;
/// TaskGroup completion state.
inline constexpr int kTaskGroup = 20;
/// Dfs file map (storage layer; leaf-like but ranked for visibility).
inline constexpr int kStorage = 25;
/// Per-job engine state (the failure latch).
inline constexpr int kJobState = 30;
/// Serving tier (QueryService queue + cache).
inline constexpr int kService = 50;
}  // namespace lock_rank

namespace sync_internal {

/// Whether the runtime lock-rank detector is active. Defaults to on in
/// debug builds (!NDEBUG), off otherwise; the FJ_SYNC_DEADLOCK_CHECKS
/// environment variable (0/1) overrides, read once on first use.
bool DeadlockChecksEnabled();

/// Forces the detector on or off (tests). Returns the previous state.
bool SetDeadlockChecksForTest(bool enabled);

/// RAII toggle for tests (death tests flip it on in release builds).
class ScopedDeadlockChecksForTest {
 public:
  explicit ScopedDeadlockChecksForTest(bool enabled)
      : previous_(SetDeadlockChecksForTest(enabled)) {}
  ~ScopedDeadlockChecksForTest() { SetDeadlockChecksForTest(previous_); }
  ScopedDeadlockChecksForTest(const ScopedDeadlockChecksForTest&) = delete;
  ScopedDeadlockChecksForTest& operator=(const ScopedDeadlockChecksForTest&) =
      delete;

 private:
  bool previous_;
};

/// Pre-acquire rank check: aborts (with both lock names and both
/// acquisition stacks) when `rank` is not strictly below every ranked
/// lock the calling thread holds. Called before blocking so a
/// would-be deadlock dies loudly instead of hanging.
void CheckAcquireOrder(const void* mu, const char* name, int rank);

/// Records a successful ranked acquire / release on the calling
/// thread's held-lock stack. PopHeld tolerates a missing entry (the
/// detector may have been toggled between acquire and release).
void PushHeld(const void* mu, const char* name, int rank);
void PopHeld(const void* mu);

}  // namespace sync_internal

/// Rank value meaning "unranked leaf: exempt from order checking".
inline constexpr int kNoMutexRank = -1;

// ---------------------------------------------------------------------------
// Mutex.

/// An exclusive mutex with capability annotations and optional rank
/// participation. API follows absl::Mutex (Lock/Unlock/MutexLock with
/// pointer args); the lowercase BasicLockable aliases exist so CondVar
/// (std::condition_variable_any underneath) can release and reacquire
/// the wrapper — and with it the rank bookkeeping — during a wait.
class FJ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// A named, optionally ranked mutex. `name` must outlive the mutex
  /// (string literals; it is printed by the deadlock detector).
  explicit Mutex(const char* name, int rank = kNoMutexRank)
      : name_(name), rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() FJ_ACQUIRE() {
    if (rank_ != kNoMutexRank) {
      sync_internal::CheckAcquireOrder(this, name_, rank_);
      mu_.lock();
      sync_internal::PushHeld(this, name_, rank_);
    } else {
      mu_.lock();
    }
  }

  void Unlock() FJ_RELEASE() {
    if (rank_ != kNoMutexRank) sync_internal::PopHeld(this);
    mu_.unlock();
  }

  /// Never blocks, so it is exempt from the order check (a try-acquire
  /// cannot complete a deadlock cycle); a successful try still lands on
  /// the held stack so later blocking acquires are checked against it.
  bool TryLock() FJ_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    if (rank_ != kNoMutexRank) sync_internal::PushHeld(this, name_, rank_);
    return true;
  }

  /// No-op at runtime; tells the analysis the lock is held on paths it
  /// cannot follow (e.g. a callee reached only under the lock).
  void AssertHeld() const FJ_ASSERT_CAPABILITY(this) {}

  // BasicLockable interface (CondVar interop; prefer Lock/Unlock).
  void lock() FJ_ACQUIRE() { Lock(); }
  void unlock() FJ_RELEASE() { Unlock(); }
  bool try_lock() FJ_TRY_ACQUIRE(true) { return TryLock(); }

  const char* name() const { return name_; }
  int rank() const { return rank_; }

 private:
  std::mutex mu_;
  const char* name_ = "mutex";
  int rank_ = kNoMutexRank;
};

// ---------------------------------------------------------------------------
// SharedMutex.

/// A reader/writer mutex. Writers use Lock/Unlock (exclusive), readers
/// ReaderLock/ReaderUnlock (shared). Both modes participate in rank
/// checking — ordering deadlocks do not care about sharing.
class FJ_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(const char* name, int rank = kNoMutexRank)
      : name_(name), rank_(rank) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() FJ_ACQUIRE() {
    if (rank_ != kNoMutexRank) {
      sync_internal::CheckAcquireOrder(this, name_, rank_);
      mu_.lock();
      sync_internal::PushHeld(this, name_, rank_);
    } else {
      mu_.lock();
    }
  }

  void Unlock() FJ_RELEASE() {
    if (rank_ != kNoMutexRank) sync_internal::PopHeld(this);
    mu_.unlock();
  }

  void ReaderLock() FJ_ACQUIRE_SHARED() {
    if (rank_ != kNoMutexRank) {
      sync_internal::CheckAcquireOrder(this, name_, rank_);
      mu_.lock_shared();
      sync_internal::PushHeld(this, name_, rank_);
    } else {
      mu_.lock_shared();
    }
  }

  void ReaderUnlock() FJ_RELEASE_SHARED() {
    if (rank_ != kNoMutexRank) sync_internal::PopHeld(this);
    mu_.unlock_shared();
  }

  void AssertHeld() const FJ_ASSERT_CAPABILITY(this) {}

  const char* name() const { return name_; }
  int rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  const char* name_ = "shared_mutex";
  int rank_ = kNoMutexRank;
};

// ---------------------------------------------------------------------------
// RAII lock holders.

/// Scoped exclusive lock on a Mutex.
class FJ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) FJ_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() FJ_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Scoped exclusive (write) lock on a SharedMutex.
class FJ_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) FJ_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() FJ_RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// Scoped shared (read) lock on a SharedMutex.
class FJ_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) FJ_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderMutexLock() FJ_RELEASE() { mu_->ReaderUnlock(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

// ---------------------------------------------------------------------------
// CondVar.

/// Condition variable bound to fj::Mutex. There is deliberately no
/// predicate-lambda Wait: the analysis cannot see that a lambda runs
/// under the lock, so call sites write the explicit absl-style loop —
///
///   mu_.Lock();
///   while (!condition) cv_.Wait(&mu_);
///   ...
///   mu_.Unlock();
///
/// — where the enclosing scope provably holds the mutex. Wait releases
/// the mutex through its lock()/unlock() aliases, so the rank
/// detector's held stack stays correct across the wait.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `*mu`, blocks until notified (or a spurious
  /// wakeup), and reacquires `*mu` before returning. Callers loop.
  void Wait(Mutex* mu) FJ_REQUIRES(mu) { cv_.wait(*mu); }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace fj
