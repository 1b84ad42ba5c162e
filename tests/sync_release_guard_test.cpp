// sync/ API-misuse guards in a RELEASE build (same pattern as
// core_release_guard_test.cpp): this TU re-defines NDEBUG, so assert() is
// compiled out and only the primitives' LockUsageError throws stand. Before
// PR 10 these guards were assert-only - in release builds a zero timeout
// waited forever, a zero-party barrier divided the generation among nobody,
// and an out-of-range barrier thread id wrote its sense flag out of bounds.
#ifndef NDEBUG
#error "sync_release_guard_test must be compiled with NDEBUG (release mode)"
#endif

#include <gtest/gtest.h>

#include "relock/core/configurable_lock.hpp"
#include "relock/platform/native.hpp"
#include "relock/sync/barrier.hpp"
#include "relock/sync/condition_variable.hpp"
#include "relock/sync/semaphore.hpp"

namespace {

using namespace relock;
using NP = native::NativePlatform;
using Lock = ConfigurableLock<NP>;

Lock::Options fcfs_opts() {
  Lock::Options o;
  o.scheduler = SchedulerKind::kFcfs;
  o.attributes = LockAttributes::spin();
  return o;
}

TEST(SyncReleaseGuard, ConditionVariableNonPositiveTimeoutThrows) {
  native::Domain domain;
  native::Context ctx(domain);
  Lock lock(domain, fcfs_opts());
  ConditionVariable<NP> cv(domain);

  lock.lock(ctx);
  // Nanos is unsigned, so zero is the only representable non-positive value.
  EXPECT_THROW((void)cv.wait_for(ctx, lock, 0), LockUsageError);
  // The guard fired before the unlock: we still hold the lock, and the CV
  // queue holds no ghost node - a notify must find nobody.
  cv.notify_all(ctx);
  lock.unlock(ctx);

  // A real timed wait still works after the misuse.
  lock.lock(ctx);
  EXPECT_FALSE(cv.wait_for(ctx, lock, 1'000'000));
  lock.unlock(ctx);
}

TEST(SyncReleaseGuard, SemaphoreNonPositiveTimeoutThrows) {
  native::Domain domain;
  native::Context ctx(domain);
  Semaphore<NP> sem(domain, /*initial=*/0);

  EXPECT_THROW((void)sem.acquire_for(ctx, 0), LockUsageError);
  // Still usable: a permit releases and a timed acquire consumes it.
  sem.release(ctx);
  EXPECT_TRUE(sem.acquire_for(ctx, 1'000'000));
  EXPECT_FALSE(sem.try_acquire(ctx));
}

TEST(SyncReleaseGuard, BarrierZeroPartiesThrows) {
  native::Domain domain;
  EXPECT_THROW(Barrier<NP>(domain, /*parties=*/0), LockUsageError);
}

TEST(SyncReleaseGuard, BarrierTimeoutTupleThrows) {
  // arrive_and_wait cannot report a timeout, so a waiting policy with one
  // is refused rather than silently dropped.
  native::Domain domain;
  EXPECT_THROW(Barrier<NP>(domain, /*parties=*/2, Placement::any(),
                           LockAttributes::conditional(1'000'000)),
               LockUsageError);
}

TEST(SyncReleaseGuard, BarrierThreadIdBeyondMaxThreadsThrows) {
  native::Domain domain;
  native::Context ctx(domain);
  // max_threads below this thread's id: without the guard the NDEBUG build
  // wrote local_sense_[tid] out of bounds.
  Barrier<NP> tiny(domain, /*parties=*/1, Placement::any(),
                   LockAttributes::spin(), /*max_threads=*/0);
  EXPECT_THROW(tiny.arrive_and_wait(ctx), LockUsageError);

  // A properly sized barrier still cycles after the misuse (single party:
  // each arrival releases its own generation).
  Barrier<NP> barrier(domain, /*parties=*/1);
  barrier.arrive_and_wait(ctx);
  barrier.arrive_and_wait(ctx);
}

}  // namespace
