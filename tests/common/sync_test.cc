// Tests for the sync capability layer (common/sync.h): the runtime
// lock-rank deadlock detector (seeded-violation death tests included),
// the TryLock exemption, SharedMutex rank participation, and CondVar.
//
// The detector defaults off under NDEBUG (the tier-1 RelWithDebInfo
// build), so every test arms it explicitly through the scoped toggle.
#include "common/sync.h"

#include <gtest/gtest.h>

#include "common/executor.h"

namespace fj {
namespace {

using sync_internal::DeadlockChecksEnabled;
using sync_internal::ScopedDeadlockChecksForTest;
using sync_internal::SetDeadlockChecksForTest;

TEST(SyncTest, MutexCarriesNameAndRank) {
  Mutex ranked{"job.failure", lock_rank::kJobState};
  EXPECT_STREQ(ranked.name(), "job.failure");
  EXPECT_EQ(ranked.rank(), lock_rank::kJobState);
  Mutex leaf{"counters"};
  EXPECT_EQ(leaf.rank(), kNoMutexRank);
}

TEST(SyncTest, ScopedToggleRestoresPreviousState) {
  const bool before = DeadlockChecksEnabled();
  {
    ScopedDeadlockChecksForTest checks(!before);
    EXPECT_EQ(DeadlockChecksEnabled(), !before);
  }
  EXPECT_EQ(DeadlockChecksEnabled(), before);
}

TEST(SyncTest, StrictlyDecreasingRankOrderIsLegal) {
  ScopedDeadlockChecksForTest checks(true);
  Mutex service{"svc", lock_rank::kService};
  Mutex job{"job", lock_rank::kJobState};
  Mutex queue{"deque", lock_rank::kExecutorQueue};
  MutexLock outer(&service);
  MutexLock mid(&job);
  MutexLock inner(&queue);
}

TEST(SyncTest, UnrankedLeavesAreExemptInEitherPosition) {
  ScopedDeadlockChecksForTest checks(true);
  // One ranked/unranked pair per order: locking one pair in both orders is
  // a real lock-order inversion, which TSan reports. All four live in one
  // scope, so no two share a stack address (std::mutex has a trivial
  // destructor, and TSan would take a reused address for the same lock).
  Mutex ranked_outer{"svc", lock_rank::kService};
  Mutex leaf_inner{"counters"};
  Mutex leaf_outer{"counters"};
  Mutex ranked_inner{"svc", lock_rank::kService};
  {
    MutexLock outer(&ranked_outer);
    MutexLock inner(&leaf_inner);
  }
  {
    MutexLock outer(&leaf_outer);
    MutexLock inner(&ranked_inner);
  }
}

TEST(SyncTest, TryLockIsExemptFromOrderCheck) {
  ScopedDeadlockChecksForTest checks(true);
  Mutex inner{"deque", lock_rank::kExecutorQueue};
  Mutex outer{"svc", lock_rank::kService};
  MutexLock hold(&inner);
  // A try-acquire cannot block, so it cannot complete a deadlock cycle;
  // taking a HIGHER rank via TryLock while holding a lower one is fine.
  ASSERT_TRUE(outer.TryLock());
  outer.Unlock();
}

TEST(SyncTest, SharedMutexWriterThenLowerRankIsLegal) {
  ScopedDeadlockChecksForTest checks(true);
  SharedMutex dfs{"dfs", lock_rank::kStorage};
  Mutex queue{"deque", lock_rank::kExecutorQueue};
  WriterMutexLock outer(&dfs);
  MutexLock inner(&queue);
}

TEST(SyncTest, DisabledDetectorIgnoresOutOfOrderAcquire) {
  ScopedDeadlockChecksForTest checks(false);
  Mutex inner{"deque", lock_rank::kExecutorQueue};
  Mutex outer{"svc", lock_rank::kService};
  // Out of order, but the detector is off: must not abort.
  MutexLock hold(&inner);
  MutexLock violate(&outer);
}

TEST(SyncTest, CondVarCrossThreadNotifyWithRankedMutex) {
  ScopedDeadlockChecksForTest checks(true);
  Executor executor(2);
  TaskGroup group(&executor);
  Mutex mu{"cv.flag", lock_rank::kService};
  CondVar cv;
  bool flag = false;
  group.Spawn([&] {
    MutexLock lock(&mu);
    flag = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(&mu);
    while (!flag) cv.Wait(&mu);
    // Wait released and reacquired mu through the wrapper, so the rank
    // bookkeeping must still see it held: a lower rank is legal...
    Mutex queue{"deque", lock_rank::kExecutorQueue};
    MutexLock inner(&queue);
  }
  ASSERT_TRUE(group.Wait().ok());
}

// ---------------------------------------------------------------------------
// Seeded violations: the detector must abort, naming BOTH locks.

TEST(SyncDeathTest, OutOfOrderAcquireAbortsWithBothNames) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex inner{"executor.worker", lock_rank::kExecutorQueue};
  Mutex outer{"query_service", lock_rank::kService};
  EXPECT_DEATH(
      {
        ScopedDeadlockChecksForTest checks(true);
        MutexLock hold(&inner);
        MutexLock violate(&outer);
      },
      "lock-rank violation.*\"query_service\".*\"executor\\.worker\"");
}

TEST(SyncDeathTest, EqualRankIsAViolationToo) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex a{"job.a", lock_rank::kJobState};
  Mutex b{"job.b", lock_rank::kJobState};
  EXPECT_DEATH(
      {
        ScopedDeadlockChecksForTest checks(true);
        MutexLock hold(&a);
        MutexLock violate(&b);
      },
      "lock-rank violation.*\"job\\.b\".*\"job\\.a\"");
}

TEST(SyncDeathTest, SuccessfulTryLockArmsLaterBlockingAcquires) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex tried{"try.tried", lock_rank::kService};
  Mutex blocked{"try.blocked", lock_rank::kService};
  EXPECT_DEATH(
      {
        ScopedDeadlockChecksForTest checks(true);
        ASSERT_TRUE(tried.TryLock());
        MutexLock violate(&blocked);
      },
      "lock-rank violation.*\"try\\.blocked\".*\"try\\.tried\"");
}

TEST(SyncDeathTest, ReaderAcquireParticipatesInRankOrder) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex inner{"executor.worker", lock_rank::kExecutorQueue};
  SharedMutex dfs{"dfs", lock_rank::kStorage};
  EXPECT_DEATH(
      {
        ScopedDeadlockChecksForTest checks(true);
        MutexLock hold(&inner);
        ReaderMutexLock violate(&dfs);
      },
      "lock-rank violation.*\"dfs\".*\"executor\\.worker\"");
}

}  // namespace
}  // namespace fj
