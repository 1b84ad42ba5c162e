// Awaitable front-end (relock/async/) on the native platform: coroutine
// waiters ride the lock's ordinary arrival path and resume on the
// configured executor. Covers the three executors, grant-vs-timeout
// resolution, reader-writer sharing, the awaitable semaphore, and a
// many-waiters drain (waiters >> threads).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "relock/async/awaiter.hpp"
#include "relock/async/manager.hpp"
#include "relock/async/semaphore.hpp"
#include "relock/async/task.hpp"
#include "relock/core/configurable_lock.hpp"
#include "relock/platform/native.hpp"

namespace {

using namespace relock;
using NP = native::NativePlatform;
using Lock = ConfigurableLock<NP>;
using relock::async::AsyncGrant;
using relock::async::AsyncLock;
using relock::async::AsyncSemaphore;
using relock::async::InlineExecutor;
using relock::async::ManagerExecutor;
using relock::async::Task;
using relock::async::ThreadPoolExecutor;

Lock::Options fcfs_opts() {
  Lock::Options o;
  o.scheduler = SchedulerKind::kFcfs;
  o.attributes = LockAttributes::spin();
  return o;
}

TEST(Async, UncontendedAcquireIsImmediate) {
  native::Domain domain;
  native::Context ctx(domain);
  Lock lock(domain, fcfs_opts());
  InlineExecutor<NP> exec;
  AsyncLock<NP> alk(lock, exec);

  bool ran = false;
  // Coroutine lambdas throughout this file are named locals, never
  // immediately-invoked temporaries: a lambda coroutine reads its captures
  // through the closure object, which the frame does NOT copy - the
  // closure must outlive every resumption.
  auto body = [&]() -> Task {
    AsyncGrant<NP> g = co_await alk.lock_async(ctx);
    EXPECT_TRUE(g.acquired());
    // Barged on the launch context: no suspension happened.
    EXPECT_EQ(&g.ctx(), &ctx);
    ran = true;
    g.unlock();
  };
  Task t = body();
  EXPECT_TRUE(t.done());
  t.rethrow();
  EXPECT_TRUE(ran);
  // The grant released: a plain cycle works.
  EXPECT_TRUE(lock.try_lock(ctx));
  lock.unlock(ctx);
}

TEST(Async, InlineExecutorResumesInsideTheRelease) {
  native::Domain domain;
  native::Context ctx(domain);
  Lock lock(domain, fcfs_opts());
  InlineExecutor<NP> exec;
  AsyncLock<NP> alk(lock, exec);

  lock.lock(ctx);
  bool entered = false;
  auto body = [&]() -> Task {
    AsyncGrant<NP> g = co_await alk.lock_async(ctx);
    EXPECT_TRUE(g.acquired());
    // Inline executor: resumed on the releasing thread's context.
    EXPECT_EQ(&g.ctx(), &ctx);
    entered = true;
    g.unlock();
  };
  Task t = body();
  EXPECT_FALSE(t.done());  // suspended behind the held lock
  EXPECT_FALSE(entered);
  lock.unlock(ctx);  // handoff resumes the frame inside this call
  EXPECT_TRUE(t.done());
  t.rethrow();
  EXPECT_TRUE(entered);
}

TEST(Async, ThreadPoolExecutorResumesOnAWorker) {
  native::Domain domain;
  native::Context ctx(domain);
  Lock lock(domain, fcfs_opts());
  ThreadPoolExecutor<NP> exec(domain, /*threads=*/2);
  AsyncLock<NP> alk(lock, exec);

  lock.lock(ctx);
  std::atomic<bool> entered{false};
  const auto main_tid = std::this_thread::get_id();
  auto body = [&]() -> Task {
    AsyncGrant<NP> g = co_await alk.lock_async(ctx);
    EXPECT_TRUE(g.acquired());
    EXPECT_NE(std::this_thread::get_id(), main_tid);
    EXPECT_NE(&g.ctx(), &ctx);
    g.unlock();
    entered.store(true, std::memory_order_release);
  };
  Task t = body();
  EXPECT_FALSE(entered.load());
  lock.unlock(ctx);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!entered.load(std::memory_order_acquire)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "grant lost";
    std::this_thread::yield();
  }
  while (!t.done()) std::this_thread::yield();
  t.rethrow();
}

TEST(Async, ManagerExecutorTimedWaitWinsTheGrant) {
  native::Domain domain;
  native::Context ctx(domain);
  Lock lock(domain, fcfs_opts());
  ManagerExecutor<NP> mgr;
  AsyncLock<NP> alk(lock, mgr);

  // A holder releases after ~20ms; the 5s budget must comfortably win.
  std::atomic<bool> held{false};
  std::thread holder([&] {
    native::Context hctx(domain);
    lock.lock(hctx);
    held.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    lock.unlock(hctx);
  });
  while (!held.load(std::memory_order_acquire)) std::this_thread::yield();

  bool acquired = false;
  auto body = [&]() -> Task {
    AsyncGrant<NP> g = co_await alk.try_lock_for_async(ctx, 5'000'000'000);
    acquired = g.acquired();
    if (g) g.unlock();
  };
  Task t = body();
  mgr.run_until(ctx, [&] { return t.done(); });
  holder.join();
  t.rethrow();
  EXPECT_TRUE(acquired);
}

TEST(Async, ManagerExecutorTimedWaitTimesOut) {
  native::Domain domain;
  native::Context ctx(domain);
  Lock lock(domain, fcfs_opts());
  ManagerExecutor<NP> mgr;
  AsyncLock<NP> alk(lock, mgr);

  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    native::Context hctx(domain);
    lock.lock(hctx);
    held.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    lock.unlock(hctx);
  });
  while (!held.load(std::memory_order_acquire)) std::this_thread::yield();

  bool acquired = true;
  auto body = [&]() -> Task {
    AsyncGrant<NP> g = co_await alk.try_lock_for_async(ctx, 50'000'000);
    acquired = g.acquired();
  };
  Task t = body();
  mgr.run_until(ctx, [&] { return t.done(); });
  t.rethrow();
  EXPECT_FALSE(acquired);

  // The withdrawal left the queue clean: the holder's release finds nobody
  // to strand, and a plain cycle works afterwards.
  release.store(true, std::memory_order_release);
  holder.join();
  lock.lock(ctx);
  lock.unlock(ctx);
}

TEST(Async, SharedAwaitersBatchGrant) {
  native::Domain domain;
  native::Context ctx(domain);
  Lock::Options o;
  o.scheduler = SchedulerKind::kReaderWriter;
  o.attributes = LockAttributes::spin();
  Lock lock(domain, o);
  InlineExecutor<NP> exec;
  AsyncLock<NP> alk(lock, exec);

  lock.lock(ctx);  // writer holds; shared awaiters must queue
  int entered = 0;
  auto reader = [&]() -> Task {
    AsyncGrant<NP> g = co_await alk.lock_shared_async(ctx);
    EXPECT_TRUE(g.acquired());
    ++entered;
    g.unlock();
  };
  Task r1 = reader();
  Task r2 = reader();
  EXPECT_EQ(entered, 0);
  lock.unlock(ctx);  // batch grant resumes both readers inline
  EXPECT_TRUE(r1.done());
  EXPECT_TRUE(r2.done());
  r1.rethrow();
  r2.rethrow();
  EXPECT_EQ(entered, 2);
  // Both shared holds released: a writer can enter again.
  EXPECT_TRUE(lock.try_lock(ctx));
  lock.unlock(ctx);
}

TEST(Async, TimedWaitNeedsATimerExecutor) {
  native::Domain domain;
  native::Context ctx(domain);
  Lock lock(domain, fcfs_opts());
  InlineExecutor<NP> exec;
  AsyncLock<NP> alk(lock, exec);

  EXPECT_THROW((void)alk.try_lock_for_async(ctx, 0), LockUsageError);

  // A positive timeout on an executor without timers fails at suspension
  // (the lock must be held, or the barge satisfies the wait instead).
  lock.lock(ctx);
  auto body = [&]() -> Task {
    (void)co_await alk.try_lock_for_async(ctx, 1'000'000);
  };
  Task t = body();
  EXPECT_TRUE(t.done());
  EXPECT_THROW(t.rethrow(), LockUsageError);
  lock.unlock(ctx);
  // The failed submission never published a record: the lock still cycles.
  lock.lock(ctx);
  lock.unlock(ctx);
}

TEST(Async, SemaphoreGrantsFifo) {
  native::Domain domain;
  native::Context ctx(domain);
  AsyncSemaphore<NP> sem(domain, /*initial=*/0);

  std::vector<int> order;
  auto waiter = [&](int id) -> Task {
    (void)co_await sem.acquire_async(ctx);
    order.push_back(id);
  };
  Task a = waiter(1);
  Task b = waiter(2);
  EXPECT_TRUE(order.empty());
  sem.release(ctx);
  EXPECT_EQ(order, (std::vector<int>{1}));
  sem.release(ctx, 2);  // grants waiter 2, banks the second permit
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sem.count_hint(ctx), 1u);
  a.rethrow();
  b.rethrow();

  bool immediate = false;
  auto third = [&]() -> Task {
    native::Context& rctx = co_await sem.acquire_async(ctx);
    // Regression: the banked-permit path (await_ready true, no suspension)
    // must still publish the resume context - it is the launch context.
    EXPECT_EQ(&rctx, &ctx);
    immediate = true;
  };
  Task c = third();
  EXPECT_TRUE(c.done());  // banked permit: no suspension
  c.rethrow();
  EXPECT_TRUE(immediate);
  EXPECT_EQ(sem.count_hint(ctx), 0u);
}

TEST(Async, GrantReleasesDuringExceptionUnwind) {
  // Regression: a user exception thrown through a held AsyncGrant must
  // unlock on the way out (native RAII), not abandon the lock. The
  // abandon-on-unwind behavior is reserved for the checker's
  // schedule-abort (see kCheckedPlatform in the destructor).
  native::Domain domain;
  native::Context ctx(domain);
  Lock lock(domain, fcfs_opts());
  InlineExecutor<NP> exec;
  AsyncLock<NP> alk(lock, exec);

  auto body = [&]() -> Task {
    AsyncGrant<NP> g = co_await alk.lock_async(ctx);
    EXPECT_TRUE(g.acquired());
    throw std::runtime_error("boom");
  };
  Task t = body();
  EXPECT_TRUE(t.done());
  EXPECT_THROW(t.rethrow(), std::runtime_error);
  // The unwind released the lock: a plain cycle works and no waiter hangs.
  EXPECT_TRUE(lock.try_lock(ctx));
  lock.unlock(ctx);
}

TEST(Async, GrantReleasesWhenDestroyedDuringUnrelatedUnwind) {
  // A grant destroyed by ordinary code while some other exception is in
  // flight (a container of grants cleared in a destructor, say) is NOT
  // being unwound itself and must release.
  native::Domain domain;
  native::Context ctx(domain);
  Lock lock(domain, fcfs_opts());
  InlineExecutor<NP> exec;
  AsyncLock<NP> alk(lock, exec);

  struct Holder {
    std::vector<AsyncGrant<NP>> grants;
    ~Holder() { grants.clear(); }
  };
  auto body = [&]() -> Task {
    Holder h;
    h.grants.push_back(co_await alk.lock_async(ctx));
    EXPECT_TRUE(h.grants.back().acquired());
    throw std::runtime_error("boom");  // ~Holder runs mid-unwind
  };
  Task t = body();
  EXPECT_TRUE(t.done());
  EXPECT_THROW(t.rethrow(), std::runtime_error);
  EXPECT_TRUE(lock.try_lock(ctx));
  lock.unlock(ctx);
}

TEST(Async, ManyWaitersDrainInArrivalOrder) {
  // Waiters >> threads: thousands of suspended frames against one held
  // lock, drained through the manager in FIFO (FCFS) order with every
  // grant accounted for.
  constexpr int kWaiters = 2000;
  native::Domain domain;
  native::Context ctx(domain);
  Lock lock(domain, fcfs_opts());
  ManagerExecutor<NP> mgr;
  AsyncLock<NP> alk(lock, mgr);

  lock.lock(ctx);
  std::vector<int> order;
  order.reserve(kWaiters);
  std::vector<Task> tasks;
  tasks.reserve(kWaiters);
  auto waiter = [&](int id) -> Task {
    AsyncGrant<NP> g = co_await alk.lock_async(ctx);
    EXPECT_TRUE(g.acquired());
    order.push_back(id);
    g.unlock();
  };
  for (int i = 0; i < kWaiters; ++i) tasks.push_back(waiter(i));
  EXPECT_TRUE(order.empty());
  lock.unlock(ctx);  // first grant posts to the manager
  mgr.run_until(ctx, [&] {
    return order.size() == static_cast<std::size_t>(kWaiters);
  });
  for (auto& t : tasks) {
    EXPECT_TRUE(t.done());
    t.rethrow();
  }
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kWaiters));
  for (int i = 0; i < kWaiters; ++i) {
    ASSERT_EQ(order[static_cast<std::size_t>(i)], i) << "FIFO order broken";
  }
  EXPECT_TRUE(lock.try_lock(ctx));
  lock.unlock(ctx);
}

TEST(Async, NoneSchedulerWaitersRideTheCellAndOrphanFifo) {
  // Coroutines cannot run the barging engine, so under kNone they publish
  // into the lock's cell like every queued kind; with no module to drain
  // into, the release parks them on the orphan queue and hands off FIFO.
  native::Domain domain;
  native::Context ctx(domain);
  Lock::Options o = fcfs_opts();
  o.scheduler = SchedulerKind::kNone;
  Lock lock(domain, o);
  InlineExecutor<NP> exec;
  AsyncLock<NP> alk(lock, exec);

  lock.lock(ctx);
  std::vector<int> order;
  std::vector<Task> tasks;
  auto waiter = [&](int id) -> Task {
    AsyncGrant<NP> g = co_await alk.lock_async(ctx);
    EXPECT_TRUE(g.acquired());
    order.push_back(id);
    g.unlock();
  };
  for (int i = 0; i < 3; ++i) tasks.push_back(waiter(i));
  EXPECT_EQ(lock.waiter_count(), 3u);
  EXPECT_TRUE(order.empty());
  lock.unlock(ctx);  // each grant resumes its frame inside the release
  for (auto& t : tasks) {
    EXPECT_TRUE(t.done());
    t.rethrow();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(lock.waiter_count(), 0u);
  EXPECT_EQ(lock.state(ctx), LockState::kUnlocked);
  EXPECT_TRUE(lock.try_lock(ctx));
  lock.unlock(ctx);
}

}  // namespace
