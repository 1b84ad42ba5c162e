// SchedulerKind::kQueue - the distributed MCS-family scheduler. Covers the
// façade module directly (enqueue/select/remove semantics on the shared
// cell), the lock on the simulator (FIFO grants and middle-node timeout
// self-removal through the same cell the native lock drives), and on the
// native path contended FIFO handoff with spinning and blocking waiting
// policies, timeout self-removal of head/middle/tail nodes (lock_for and
// native::Mutex::try_lock_for), interaction with the fissile fast path,
// and reconfiguration to and from kQueue under load.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <thread>
#include <vector>

#include "relock/core/configurable_lock.hpp"
#include "relock/core/scheduler.hpp"
#include "relock/native/mutex.hpp"
#include "relock/platform/native.hpp"
#include "relock/sim/machine.hpp"

namespace relock {
namespace {

using native::NativePlatform;
using Lock = ConfigurableLock<NativePlatform>;

Lock::Options opts(SchedulerKind kind = SchedulerKind::kQueue,
                   LockAttributes attrs = LockAttributes::spin()) {
  Lock::Options o;
  o.scheduler = kind;
  o.attributes = attrs;
  return o;
}

template <typename F>
void await(F&& probe, bool want) {
  const Nanos deadline = monotonic_now() + 10'000'000'000;  // 10 s
  while (probe() != want) {
    ASSERT_LT(monotonic_now(), deadline) << "probe never reached state";
    std::this_thread::yield();
  }
}

// ------------------------------------------- façade module unit tests ----
// The DistributedQueueScheduler forwards to the cell without a context, so
// it is exact only where producers and the consumer cannot overlap - a
// single thread here - which pins the cell's queue semantics down
// directly.

using sim::Machine;
using sim::MachineParams;
using sim::ProcId;
using sim::SimPlatform;
using sim::Thread;
using SimRec = WaiterRecord<SimPlatform>;

class QueueFacadeUnit : public ::testing::Test {
 protected:
  QueueFacadeUnit() : machine_(MachineParams::test_machine(2)) {}

  SimRec& make(ThreadId tid, Priority prio = 0) {
    recs_.emplace_back(machine_, tid, prio, Placement::on(0),
                       /*shared=*/false, /*may_sleep=*/false);
    return recs_.back();
  }

  Machine machine_;
  std::deque<SimRec> recs_;  // deque: records are immovable
  DistributedQueueScheduler<SimPlatform> sched_;
};

TEST_F(QueueFacadeUnit, KindAndPolicy) {
  EXPECT_EQ(sched_.kind(), SchedulerKind::kQueue);
  EXPECT_EQ(sched_.successor_policy(), SuccessorPolicy::kStableHead);
  EXPECT_TRUE(sched_.empty());
  EXPECT_EQ(sched_.select(kInvalidThread), nullptr);
  EXPECT_EQ(sched_.pop_any(), nullptr);
}

TEST_F(QueueFacadeUnit, FifoSelectIgnoresPriorityAndHint) {
  SimRec& a = make(1, /*prio=*/0);
  SimRec& b = make(2, /*prio=*/9);
  SimRec& c = make(3, /*prio=*/5);
  sched_.enqueue(a);
  sched_.enqueue(b);
  sched_.enqueue(c);
  EXPECT_EQ(sched_.select(/*hint=*/3), &a);  // hints do not reorder a FIFO
  EXPECT_EQ(a.batch_next, nullptr);
  EXPECT_EQ(sched_.select(kInvalidThread), &b);
  EXPECT_EQ(b.batch_next, nullptr);
  EXPECT_FALSE(sched_.empty());
  EXPECT_EQ(sched_.pop_any(), &c);
  EXPECT_TRUE(sched_.empty());
}

TEST_F(QueueFacadeUnit, RemoveHeadMiddleTailAndReuse) {
  SimRec& a = make(1);
  SimRec& b = make(2);
  SimRec& c = make(3);
  SimRec& d = make(4);
  sched_.enqueue(a);
  sched_.enqueue(b);
  sched_.enqueue(c);
  sched_.enqueue(d);
  sched_.remove(b);  // middle
  sched_.remove(d);  // tail
  sched_.remove(a);  // head
  EXPECT_FALSE(sched_.empty());
  EXPECT_EQ(sched_.pop_any(), &c);
  EXPECT_TRUE(sched_.empty());
  // Unlinked records are clean for re-enqueue (node reuse after timeout).
  sched_.enqueue(b);
  sched_.enqueue(a);
  EXPECT_EQ(sched_.pop_any(), &b);
  EXPECT_EQ(sched_.pop_any(), &a);
  EXPECT_TRUE(sched_.empty());
}

TEST_F(QueueFacadeUnit, EnqueueFrontRestoresHeadPosition) {
  SimRec& a = make(1);
  SimRec& b = make(2);
  sched_.enqueue(a);
  sched_.enqueue(b);
  SimRec* head = sched_.pop_any();
  ASSERT_EQ(head, &a);
  sched_.enqueue_front(*head);  // reclaim: oldest goes back in front
  EXPECT_EQ(sched_.pop_any(), &a);
  EXPECT_EQ(sched_.pop_any(), &b);
  // enqueue_front into an empty queue is the degenerate case; later
  // arrivals still link behind the re-inserted head.
  sched_.enqueue_front(a);
  sched_.enqueue(b);
  EXPECT_EQ(sched_.pop_any(), &a);
  EXPECT_EQ(sched_.pop_any(), &b);
  EXPECT_TRUE(sched_.empty());
}

// ------------------------------------------------- the lock on the sim ---
// The simulator publishes every arrival under the meta guard and runs the
// lock's kQueue grants and withdrawals on the same WaitQueueCell code the
// native lock and relock-check drive.

using SimLock = ConfigurableLock<SimPlatform>;

SimLock::Options sim_opts() {
  SimLock::Options o;
  o.scheduler = SchedulerKind::kQueue;
  o.attributes = LockAttributes::spin();
  o.placement = Placement::on(0);
  o.monitor_enabled = true;
  return o;
}

TEST(QueueSchedulerSim, ContendedGrantOrderIsFifo) {
  // Waiters arrive 2 -> 3 -> 1 behind a long hold; priorities rank them the
  // other way round, which a FIFO must ignore.
  Machine m(MachineParams::test_machine(4));
  SimLock lock(m, sim_opts());
  std::vector<int> order;
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 300'000);
    lock.unlock(t);
  });
  const Nanos arrive_at[] = {0, 6'000, 2'000, 4'000};
  for (int i = 1; i <= 3; ++i) {
    m.spawn(static_cast<ProcId>(i), [&, i](Thread& t) {
      t.set_priority(static_cast<Priority>(10 * i));
      m.compute(t, arrive_at[i]);
      ASSERT_TRUE(lock.lock(t));
      order.push_back(i);
      m.compute(t, 1'000);
      lock.unlock(t);
    });
  }
  m.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
  EXPECT_EQ(lock.waiter_count(), 0u);
  EXPECT_EQ(lock.monitor().snapshot().handoffs, 3u);
}

TEST(QueueSchedulerSim, LockForSelfRemovesAMiddleWaiter) {
  // W1 and W3 (no timeout) bracket W2 (100 us timeout) behind a 500 us
  // hold: W2's node unlinks itself from the middle of the cell, and the
  // release chain still reaches W1 then W3.
  Machine m(MachineParams::test_machine(4));
  SimLock lock(m, sim_opts());
  std::vector<int> order;
  bool w2_timed_out = false;
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 500'000);
    lock.unlock(t);
  });
  m.spawn(1, [&](Thread& t) {
    m.compute(t, 2'000);
    ASSERT_TRUE(lock.lock(t));
    order.push_back(1);
    lock.unlock(t);
  });
  m.spawn(2, [&](Thread& t) {
    m.compute(t, 4'000);
    w2_timed_out = !lock.lock_for(t, 100'000);
  });
  m.spawn(3, [&](Thread& t) {
    m.compute(t, 6'000);
    ASSERT_TRUE(lock.lock(t));
    order.push_back(3);
    lock.unlock(t);
  });
  m.run();
  EXPECT_TRUE(w2_timed_out);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(lock.waiter_count(), 0u);
  EXPECT_EQ(lock.monitor().snapshot().timeouts, 1u);
}

// ------------------------------------------------ native lock behavior ---

TEST(QueueScheduler, UncontendedCyclesStayInFastMode) {
  // kQueue is fissile-eligible: uncontended cycles never touch the cell.
  native::Domain dom;
  Lock lk(dom, opts());
  native::Context ctx(dom);
  EXPECT_TRUE(lk.fast_path_eligible());
  for (int i = 0; i < 100; ++i) {
    lk.lock(ctx);
    EXPECT_TRUE(lk.in_fast_mode(ctx));
    lk.unlock(ctx);
  }
  EXPECT_TRUE(lk.try_lock(ctx));
  lk.unlock(ctx);
  EXPECT_TRUE(lk.lock_for(ctx, 1'000'000));
  lk.unlock(ctx);
  EXPECT_TRUE(lk.in_fast_mode(ctx));
}

TEST(QueueScheduler, FirstQueuedArrivalDemotesFastMode) {
  native::Domain dom;
  Lock lk(dom, opts());
  native::Context ctx(dom);
  lk.lock(ctx);
  std::thread contender([&] {
    native::Context tctx(dom);
    lk.lock(tctx);
    lk.unlock(tctx);
  });
  // The queued arrival's mark demotes the lock to full mode (fissile bit 1
  // behaves identically to the centralized schedulers).
  await([&] { return lk.in_fast_mode(ctx); }, false);
  lk.unlock(ctx);
  contender.join();
  // Queue drained, releaser published free: fast mode restored.
  EXPECT_TRUE(lk.in_fast_mode(ctx));
}

void contended_cycles(Lock& lk, native::Domain& dom, unsigned threads,
                      int iters) {
  std::atomic<int> inside{0};
  std::atomic<int> total{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      native::Context ctx(dom);
      for (int i = 0; i < iters; ++i) {
        lk.lock(ctx);
        ASSERT_EQ(inside.fetch_add(1, std::memory_order_relaxed), 0);
        inside.fetch_sub(1, std::memory_order_relaxed);
        total.fetch_add(1, std::memory_order_relaxed);
        lk.unlock(ctx);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(total.load(), static_cast<int>(threads) * iters);
}

TEST(QueueScheduler, ContendedHandoffSpinPolicy) {
  native::Domain dom;
  Lock lk(dom, opts(SchedulerKind::kQueue, LockAttributes::spin()));
  contended_cycles(lk, dom, 4, 2'000);
  native::Context ctx(dom);
  EXPECT_EQ(lk.state(ctx), LockState::kUnlocked);
  EXPECT_TRUE(lk.in_fast_mode(ctx));
}

TEST(QueueScheduler, ContendedHandoffBlockingPolicy) {
  native::Domain dom;
  Lock lk(dom, opts(SchedulerKind::kQueue, LockAttributes::blocking()));
  contended_cycles(lk, dom, 4, 1'000);
  native::Context ctx(dom);
  EXPECT_EQ(lk.state(ctx), LockState::kUnlocked);
}

TEST(QueueScheduler, GrantOrderIsFifo) {
  // Arrivals are spaced far apart (100 ms) behind a held lock, so the
  // tail-swap order matches the release order of the start gates; the
  // grant chain must then pop the nodes in exactly that order.
  native::Domain dom;
  Lock lk(dom, opts());
  native::Context ctx(dom);
  lk.lock(ctx);
  std::vector<unsigned> order;
  std::atomic<unsigned> gate{0};
  std::vector<std::thread> waiters;
  for (unsigned t = 0; t < 3; ++t) {
    waiters.emplace_back([&, t] {
      native::Context tctx(dom);
      while (gate.load(std::memory_order_acquire) <= t) {
        std::this_thread::yield();
      }
      lk.lock(tctx);
      order.push_back(t);  // guarded by lk itself
      lk.unlock(tctx);
    });
  }
  for (unsigned t = 0; t < 3; ++t) {
    gate.fetch_add(1, std::memory_order_acq_rel);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  lk.unlock(ctx);
  for (auto& w : waiters) w.join();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
  EXPECT_EQ(order[2], 2u);
}

TEST(QueueScheduler, LockForTimesOutAndSelfRemoves) {
  native::Domain dom;
  Lock lk(dom, opts());
  native::Context ctx(dom);
  lk.lock(ctx);
  std::thread timed([&] {
    native::Context tctx(dom);
    // Times out while linked as the only node: tail self-removal.
    EXPECT_FALSE(lk.lock_for(tctx, 50'000'000));  // 50 ms
  });
  timed.join();
  lk.unlock(ctx);
  // The timed-out node unlinked itself: the lock is clean and reusable.
  EXPECT_EQ(lk.state(ctx), LockState::kUnlocked);
  lk.lock(ctx);
  lk.unlock(ctx);
  EXPECT_TRUE(lk.in_fast_mode(ctx));
}

TEST(QueueScheduler, MiddleNodeTimeoutLeavesNeighborsLinked) {
  // W1 (no timeout) and W3 (no timeout) bracket W2 (short timeout): W2's
  // self-removal must relink W1->W3 so both still get granted.
  native::Domain dom;
  Lock lk(dom, opts());
  native::Context ctx(dom);
  lk.lock(ctx);
  std::atomic<int> granted{0};
  std::atomic<unsigned> arrived{0};
  std::thread w1([&] {
    native::Context tctx(dom);
    arrived.fetch_add(1, std::memory_order_acq_rel);
    lk.lock(tctx);
    granted.fetch_add(1, std::memory_order_relaxed);
    lk.unlock(tctx);
  });
  await([&] { return arrived.load(std::memory_order_acquire) == 1 &&
                     lk.state(ctx) == LockState::kLocked; }, true);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::atomic<bool> w2_done{false};
  std::thread w2([&] {
    native::Context tctx(dom);
    arrived.fetch_add(1, std::memory_order_acq_rel);
    EXPECT_FALSE(lk.lock_for(tctx, 60'000'000));  // 60 ms: times out
    w2_done.store(true, std::memory_order_release);
  });
  await([&] { return arrived.load(std::memory_order_acquire) == 2; }, true);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread w3([&] {
    native::Context tctx(dom);
    arrived.fetch_add(1, std::memory_order_acq_rel);
    lk.lock(tctx);
    granted.fetch_add(1, std::memory_order_relaxed);
    lk.unlock(tctx);
  });
  await([&] { return arrived.load(std::memory_order_acquire) == 3; }, true);
  // Hold until W2's deadline passes so it self-removes from the middle.
  await([&] { return w2_done.load(std::memory_order_acquire); }, true);
  lk.unlock(ctx);
  w1.join();
  w2.join();
  w3.join();
  EXPECT_EQ(granted.load(), 2);
  EXPECT_EQ(lk.state(ctx), LockState::kUnlocked);
}

TEST(QueueScheduler, MutexTryLockForOnQueueConfiguration) {
  // The ISSUE's try_lock_for surface: a native::Mutex reconfigured to
  // kQueue times out and recovers through the same node self-removal.
  native::Mutex m;
  auto& ctx = native::this_thread_context();
  m.underlying().configure_scheduler(ctx, SchedulerKind::kQueue);
  m.lock();
  std::thread timed([&] {
    EXPECT_FALSE(m.try_lock_for(40'000'000));  // 40 ms under a held lock
  });
  timed.join();
  m.unlock();
  EXPECT_TRUE(m.try_lock_for(40'000'000));
  m.unlock();
}

TEST(QueueScheduler, ReconfigureToAndFromQueueUnderLoad) {
  // Threads hammer lock cycles while the main thread flips the scheduler
  // kFcfs -> kQueue -> kNone -> kQueue -> kFcfs: every linked waiter must
  // survive each migration (none stranded, mutual exclusion preserved).
  native::Domain dom;
  Lock lk(dom, opts(SchedulerKind::kFcfs));
  std::atomic<bool> stop{false};
  std::atomic<int> inside{0};
  std::atomic<long> total{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      native::Context ctx(dom);
      while (!stop.load(std::memory_order_relaxed)) {
        lk.lock(ctx);
        ASSERT_EQ(inside.fetch_add(1, std::memory_order_relaxed), 0);
        inside.fetch_sub(1, std::memory_order_relaxed);
        total.fetch_add(1, std::memory_order_relaxed);
        lk.unlock(ctx);
      }
    });
  }
  {
    native::Context ctx(dom);
    const SchedulerKind plan[] = {
        SchedulerKind::kQueue, SchedulerKind::kNone, SchedulerKind::kQueue,
        SchedulerKind::kFcfs,  SchedulerKind::kQueue, SchedulerKind::kQueue,
        SchedulerKind::kPriorityQueue, SchedulerKind::kQueue};
    for (int round = 0; round < 40; ++round) {
      lk.configure_scheduler(ctx, plan[static_cast<std::size_t>(round) %
                                       (sizeof(plan) / sizeof(plan[0]))]);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  EXPECT_GT(total.load(), 0);
  native::Context ctx(dom);
  EXPECT_EQ(lk.state(ctx), LockState::kUnlocked);
  lk.lock(ctx);
  lk.unlock(ctx);
}

TEST(QueueScheduler, TimeoutsRacingReconfiguration) {
  // Conditional waiters (short timeouts) racing kind flips: a record that
  // registered against kQueue may be migrated into a centralized module
  // (or orphaned) before its deadline - withdrawal must find it wherever
  // it landed.
  native::Domain dom;
  Lock lk(dom, opts(SchedulerKind::kQueue));
  std::atomic<bool> stop{false};
  std::atomic<int> inside{0};
  std::thread holder([&] {
    native::Context ctx(dom);
    while (!stop.load(std::memory_order_relaxed)) {
      lk.lock(ctx);
      ASSERT_EQ(inside.fetch_add(1, std::memory_order_relaxed), 0);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      inside.fetch_sub(1, std::memory_order_relaxed);
      lk.unlock(ctx);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> timed;
  for (unsigned t = 0; t < 3; ++t) {
    timed.emplace_back([&] {
      native::Context ctx(dom);
      while (!stop.load(std::memory_order_relaxed)) {
        if (lk.lock_for(ctx, 200'000)) {  // 200 us: often times out
          ASSERT_EQ(inside.fetch_add(1, std::memory_order_relaxed), 0);
          inside.fetch_sub(1, std::memory_order_relaxed);
          lk.unlock(ctx);
        }
      }
    });
  }
  {
    native::Context ctx(dom);
    for (int round = 0; round < 30; ++round) {
      lk.configure_scheduler(ctx, round % 2 == 0 ? SchedulerKind::kFcfs
                                                 : SchedulerKind::kQueue);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  holder.join();
  for (auto& w : timed) w.join();
  native::Context ctx(dom);
  EXPECT_EQ(lk.state(ctx), LockState::kUnlocked);
  lk.lock(ctx);
  lk.unlock(ctx);
}

// ------------------------------- the cell as every kind's arrival channel
// On the native platform every queued kind publishes into the lock's cell;
// the release module drains it into the module that is not the distributed
// queue.

TEST(ArrivalCell, QueueToPriorityServesPreRegisteredWaitersFifoFirst) {
  // Two waiters linked under kQueue, the lower priority first; then a
  // reconfiguration to kPriorityQueue, and two arrivals during the
  // configuration delay, the lower priority first. The pre-registered pair
  // must be granted FIFO (the outgoing module's order), the delay arrivals
  // by priority. Were the linked pair left in the cell, which is now the
  // incoming kind's channel too, the release's drain would move them into
  // the priority module with the delay's arrivals: all four by priority.
  native::Domain dom;
  Lock lk(dom, opts(SchedulerKind::kQueue, LockAttributes::blocking()));
  native::Context ctx(dom);
  lk.lock(ctx);
  std::vector<int> order;  // guarded by lk itself
  std::vector<std::thread> waiters;
  const auto arrive = [&](int id, Priority prio) {
    const std::uint32_t before = lk.waiter_count();
    waiters.emplace_back([&, id, prio] {
      native::Context tctx(dom, prio);
      lk.lock(tctx);
      order.push_back(id);
      lk.unlock(tctx);
    });
    await([&] { return lk.waiter_count() == before + 1; }, true);
  };
  arrive(0, 1);
  arrive(1, 2);
  lk.configure_scheduler(ctx, SchedulerKind::kPriorityQueue);
  EXPECT_TRUE(lk.reconfiguration_pending());
  arrive(2, 5);
  arrive(3, 9);
  lk.unlock(ctx);
  for (auto& w : waiters) w.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 2}));
  EXPECT_FALSE(lk.reconfiguration_pending());
  EXPECT_EQ(lk.scheduler_kind(), SchedulerKind::kPriorityQueue);
  EXPECT_EQ(lk.state(ctx), LockState::kUnlocked);
}

TEST(ArrivalCell, TimedFcfsWaiterWithdrawsFromTheCell) {
  // The owner never releases while the timed waiter waits, so no release
  // drains its record into the FCFS module: the timeout must unlink it
  // from the cell itself. A record left behind would be drained - and
  // granted - ahead of the later waiter after its frame is gone.
  native::Domain dom;
  Lock lk(dom, opts(SchedulerKind::kFcfs));
  native::Context ctx(dom);
  lk.lock(ctx);
  std::thread timed([&] {
    native::Context tctx(dom);
    EXPECT_FALSE(lk.lock_for(tctx, 20'000'000));  // 20 ms
  });
  timed.join();
  EXPECT_EQ(lk.waiter_count(), 0u);
  std::atomic<bool> entered{false};
  std::thread later([&] {
    native::Context tctx(dom);
    lk.lock(tctx);
    entered.store(true, std::memory_order_release);
    lk.unlock(tctx);
  });
  await([&] { return lk.waiter_count() == 1; }, true);
  lk.unlock(ctx);
  later.join();
  EXPECT_TRUE(entered.load(std::memory_order_acquire));
  EXPECT_EQ(lk.state(ctx), LockState::kUnlocked);
  lk.lock(ctx);
  lk.unlock(ctx);
  EXPECT_TRUE(lk.in_fast_mode(ctx));
}

TEST(ArrivalCell, DelayedQueueArrivalsWaitOutIneligibleWaiters) {
  // kPriorityThreshold with one ineligible waiter, reconfigured to kQueue:
  // the configuration delay holds a later arrival in the cell. The
  // holder's release finds nobody eligible and must publish the lock free
  // rather than re-grab it for the held-back cell forever; the ineligible
  // waiter's timeout then ends the delay and the cell's waiter is granted.
  native::Domain dom;
  Lock lk(dom, opts(SchedulerKind::kPriorityThreshold,
                    LockAttributes::blocking()));
  native::Context ctx(dom);
  lk.set_priority_threshold(ctx, 5);
  lk.lock(ctx);
  std::thread ineligible([&] {
    native::Context tctx(dom, /*priority=*/1);
    EXPECT_FALSE(lk.lock_for(tctx, 50'000'000));  // 50 ms
  });
  await([&] { return lk.waiter_count() == 1; }, true);
  lk.configure_scheduler(ctx, SchedulerKind::kQueue);
  EXPECT_TRUE(lk.reconfiguration_pending());
  std::atomic<bool> entered{false};
  std::thread queued([&] {
    native::Context tctx(dom, /*priority=*/9);
    lk.lock(tctx);
    entered.store(true, std::memory_order_release);
    lk.unlock(tctx);
  });
  await([&] { return lk.waiter_count() == 2; }, true);
  lk.unlock(ctx);
  EXPECT_FALSE(entered.load(std::memory_order_acquire));
  ineligible.join();
  queued.join();
  EXPECT_TRUE(entered.load(std::memory_order_acquire));
  EXPECT_FALSE(lk.reconfiguration_pending());
  EXPECT_EQ(lk.scheduler_kind(), SchedulerKind::kQueue);
  EXPECT_EQ(lk.state(ctx), LockState::kUnlocked);
}

}  // namespace
}  // namespace relock
