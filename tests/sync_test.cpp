// The sync module: condition variables, semaphores, barriers - exercised on
// the simulator (deterministic) and natively (real concurrency).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "relock/locks/spin_locks.hpp"
#include "relock/platform/native.hpp"
#include "relock/sim/machine.hpp"
#include "relock/sync/barrier.hpp"
#include "relock/sync/condition_variable.hpp"
#include "relock/sync/semaphore.hpp"

namespace relock {
namespace {

using sim::Machine;
using sim::MachineParams;
using sim::ProcId;
using sim::SimPlatform;
using sim::Thread;
using NP = native::NativePlatform;

// ------------------------------------------------- ConditionVariable -----

TEST(CondVarSim, WaitNotifyOne) {
  Machine m(MachineParams::test_machine(3));
  TtasLock<SimPlatform> lock(m, Placement::on(0));
  ConditionVariable<SimPlatform> cv(m, Placement::on(0));
  bool ready = false;
  std::vector<int> order;
  m.spawn(0, [&](Thread& t) {
    lock.lock(t);
    cv.wait(t, lock, [&] { return ready; });
    order.push_back(2);
    lock.unlock(t);
  });
  m.spawn(1, [&](Thread& t) {
    m.compute(t, 50'000);  // let the waiter park
    lock.lock(t);
    ready = true;
    order.push_back(1);
    lock.unlock(t);
    cv.notify_one(t);
  });
  m.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(CondVarSim, NotifyAllWakesEveryWaiter) {
  Machine m(MachineParams::test_machine(6));
  TtasLock<SimPlatform> lock(m, Placement::on(0));
  ConditionVariable<SimPlatform> cv(m, Placement::on(0));
  bool go = false;
  int released = 0;
  for (int i = 0; i < 5; ++i) {
    m.spawn(static_cast<ProcId>(i), [&](Thread& t) {
      lock.lock(t);
      cv.wait(t, lock, [&] { return go; });
      ++released;
      lock.unlock(t);
    });
  }
  m.spawn(5, [&](Thread& t) {
    m.compute(t, 100'000);
    lock.lock(t);
    go = true;
    lock.unlock(t);
    cv.notify_all(t);
  });
  m.run();
  EXPECT_EQ(released, 5);
}

TEST(CondVarSim, WaitForTimesOutAndReacquiresLock) {
  Machine m(MachineParams::test_machine(2));
  TtasLock<SimPlatform> lock(m, Placement::on(0));
  ConditionVariable<SimPlatform> cv(m, Placement::on(0));
  bool timed_out = false;
  m.spawn(0, [&](Thread& t) {
    lock.lock(t);
    timed_out = !cv.wait_for(t, lock, 50'000);
    // The lock must be held again here.
    EXPECT_FALSE(lock.try_lock(t));
    lock.unlock(t);
  });
  m.run();
  EXPECT_TRUE(timed_out);
}

TEST(CondVarSim, WaitForReturnsTrueWhenNotified) {
  Machine m(MachineParams::test_machine(3));
  TtasLock<SimPlatform> lock(m, Placement::on(0));
  ConditionVariable<SimPlatform> cv(m, Placement::on(0));
  bool got = false;
  m.spawn(0, [&](Thread& t) {
    lock.lock(t);
    got = cv.wait_for(t, lock, 10'000'000);
    lock.unlock(t);
  });
  m.spawn(1, [&](Thread& t) {
    m.compute(t, 50'000);
    cv.notify_one(t);
  });
  m.run();
  EXPECT_TRUE(got);
}

TEST(CondVarSim, NotifyWithoutWaitersIsANoop) {
  Machine m(MachineParams::test_machine(2));
  ConditionVariable<SimPlatform> cv(m, Placement::on(0));
  bool done = false;
  m.spawn(0, [&](Thread& t) {
    cv.notify_one(t);
    cv.notify_all(t);
    done = true;
  });
  m.run();
  EXPECT_TRUE(done);
}

TEST(CondVarNative, ProducerConsumerQueue) {
  native::Domain dom;
  TtasLock<NP> lock(dom);
  ConditionVariable<NP> cv(dom);
  std::deque<int> queue;
  constexpr int kItems = 2000;
  std::vector<int> consumed;
  std::thread consumer([&] {
    native::Context ctx(dom);
    for (int i = 0; i < kItems; ++i) {
      lock.lock(ctx);
      cv.wait(ctx, lock, [&] { return !queue.empty(); });
      consumed.push_back(queue.front());
      queue.pop_front();
      lock.unlock(ctx);
    }
  });
  std::thread producer([&] {
    native::Context ctx(dom);
    for (int i = 0; i < kItems; ++i) {
      lock.lock(ctx);
      queue.push_back(i);
      lock.unlock(ctx);
      cv.notify_one(ctx);
    }
  });
  producer.join();
  consumer.join();
  ASSERT_EQ(consumed.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(consumed[static_cast<std::size_t>(i)], i);
}

// ---------------------------------------------------------- Semaphore ----

TEST(SemaphoreSim, InitialPermitsAreConsumable) {
  Machine m(MachineParams::test_machine(2));
  Semaphore<SimPlatform> sem(m, 2, Placement::on(0));
  int acquired = 0;
  m.spawn(0, [&](Thread& t) {
    if (sem.try_acquire(t)) ++acquired;
    if (sem.try_acquire(t)) ++acquired;
    if (sem.try_acquire(t)) ++acquired;  // exhausted
  });
  m.run();
  EXPECT_EQ(acquired, 2);
}

TEST(SemaphoreSim, ReleaseWakesBlockedAcquirer) {
  Machine m(MachineParams::test_machine(3));
  Semaphore<SimPlatform> sem(m, 0, Placement::on(0),
                             LockAttributes::blocking());
  std::vector<int> order;
  m.spawn(0, [&](Thread& t) {
    ASSERT_TRUE(sem.acquire(t));  // blocks until released
    order.push_back(2);
  });
  m.spawn(1, [&](Thread& t) {
    m.compute(t, 50'000);
    order.push_back(1);
    sem.release(t);
  });
  m.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SemaphoreSim, BatchReleaseGrantsFifo) {
  Machine m(MachineParams::test_machine(5));
  Semaphore<SimPlatform> sem(m, 0, Placement::on(0),
                             LockAttributes::blocking());
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    m.spawn(static_cast<ProcId>(i), [&, i](Thread& t) {
      m.compute(t, static_cast<Nanos>(1000 * (i + 1)));  // staggered
      ASSERT_TRUE(sem.acquire(t));
      order.push_back(i);
    });
  }
  m.spawn(3, [&](Thread& t) {
    m.compute(t, 100'000);
    sem.release(t, 3);
  });
  m.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SemaphoreSim, AcquireForTimesOut) {
  Machine m(MachineParams::test_machine(2));
  Semaphore<SimPlatform> sem(m, 0, Placement::on(0),
                             LockAttributes::combined(3, 10'000));
  bool got = true;
  m.spawn(0, [&](Thread& t) { got = sem.acquire_for(t, 80'000); });
  m.run();
  EXPECT_FALSE(got);
}

TEST(SemaphoreSim, TimedOutWaiterDoesNotConsumeLaterPermit) {
  Machine m(MachineParams::test_machine(3));
  Semaphore<SimPlatform> sem(m, 0, Placement::on(0),
                             LockAttributes::blocking());
  bool first_got = true, second_got = false;
  m.spawn(0, [&](Thread& t) {
    first_got = sem.acquire_for(t, 30'000);  // times out at t=30us
  });
  m.spawn(1, [&](Thread& t) {
    m.compute(t, 200'000);
    sem.release(t);               // after the timeout
    second_got = sem.try_acquire(t);  // the permit must still be there
  });
  m.run();
  EXPECT_FALSE(first_got);
  EXPECT_TRUE(second_got);
}

// The degenerate (0,_,0,_) tuple has neither a spin nor a sleep phase; each
// waiting round must still probe once. The simulated runs are bounded in
// virtual time, so a waiter that never probes shows up as a thread that
// has not finished, not as a hung test.
constexpr LockAttributes kNoPhase{/*spin=*/0, /*delay=*/0, /*sleep=*/0,
                                  /*timeout=*/0};

TEST(SemaphoreSim, DegenerateTupleObservesRelease) {
  Machine m(MachineParams::test_machine(2));
  Semaphore<SimPlatform> sem(m, 0, Placement::on(0), kNoPhase);
  bool got = false;
  m.spawn(0, [&](Thread& t) { got = sem.acquire(t); });
  m.spawn(1, [&](Thread& t) {
    m.compute(t, 50'000);
    sem.release(t);
  });
  m.run(10'000'000);
  EXPECT_TRUE(got);
}

TEST(SemaphoreSim, DegenerateTimedAcquireReturnsByItsDeadline) {
  // (0,0,0,T): nobody releases, so the acquire must return false once T
  // has passed - no later than one microsecond after the deadline (500
  // probe rounds at the test machine's 2 ns pause).
  constexpr Nanos kTimeout = 80'000;
  constexpr Nanos kBound = 1'000;
  Machine m(MachineParams::test_machine(2));
  Semaphore<SimPlatform> sem(m, 0, Placement::on(0),
                             LockAttributes::conditional(kTimeout, kNoPhase));
  bool returned = false;
  bool got = true;
  Nanos waited = 0;
  m.spawn(0, [&](Thread& t) {
    const Nanos start = m.now();
    got = sem.acquire(t);
    waited = m.now() - start;
    returned = true;
  });
  m.run(10'000'000);
  ASSERT_TRUE(returned);
  EXPECT_FALSE(got);
  EXPECT_GE(waited, kTimeout);
  EXPECT_LE(waited, kTimeout + kBound);
}

TEST(SemaphoreNative, BoundedResourcePool) {
  native::Domain dom;
  Semaphore<NP> sem(dom, 3, Placement::any(), LockAttributes::blocking());
  std::atomic<int> in_use{0};
  std::atomic<int> max_in_use{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      native::Context ctx(dom);
      for (int j = 0; j < 300; ++j) {
        ASSERT_TRUE(sem.acquire(ctx));
        const int now = in_use.fetch_add(1) + 1;
        int prev = max_in_use.load();
        while (now > prev && !max_in_use.compare_exchange_weak(prev, now)) {
        }
        in_use.fetch_sub(1);
        sem.release(ctx);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(max_in_use.load(), 3) << "semaphore bound violated";
  EXPECT_GE(max_in_use.load(), 1);
}

// Spin-policy primitives must make progress with more threads than
// processors (CI also runs this binary under `taskset -c 0`): a failed
// probe has to give way to the thread that will grant the waiter.
constexpr auto kOneCoreBound = std::chrono::seconds(5);

/// A short critical section: 200 iterations the compiler cannot drop.
void critical_section() {
  static std::atomic<std::uint64_t> sink{0};
  for (int k = 0; k < 200; ++k) sink.fetch_add(1, std::memory_order_relaxed);
}

TEST(SemaphoreNative, SpinPolicyFinishesOnOneCore) {
  native::Domain dom;
  Semaphore<NP> sem(dom, 1, Placement::any(), LockAttributes::spin());
  constexpr int kThreads = 4, kIters = 10'000;
  std::atomic<int> inside{0};
  std::atomic<bool> overlap{false};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      native::Context ctx(dom);
      for (int j = 0; j < kIters; ++j) {
        ASSERT_TRUE(sem.acquire(ctx));
        if (inside.fetch_add(1) != 0) overlap.store(true);
        critical_section();
        inside.fetch_sub(1);
        sem.release(ctx);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, kOneCoreBound);
  EXPECT_FALSE(overlap.load()) << "one permit, two holders";
  EXPECT_EQ(sem.count_hint(), 1u);
}

// ------------------------------------------------------------ Barrier ----

TEST(BarrierSim, ReleasesAllPartiesTogether) {
  Machine m(MachineParams::test_machine(4));
  Barrier<SimPlatform> barrier(m, 4, Placement::on(0));
  int arrived = 0;
  bool early_exit = false;
  for (int i = 0; i < 4; ++i) {
    m.spawn(static_cast<ProcId>(i), [&, i](Thread& t) {
      m.compute(t, static_cast<Nanos>(5000 * (i + 1)));
      ++arrived;
      barrier.arrive_and_wait(t);
      if (arrived != 4) early_exit = true;
    });
  }
  m.run();
  EXPECT_FALSE(early_exit) << "a thread passed the barrier early";
}

TEST(BarrierSim, ReusableAcrossGenerations) {
  Machine m(MachineParams::test_machine(3));
  Barrier<SimPlatform> barrier(m, 3, Placement::on(0));
  constexpr int kRounds = 10;
  int phase_counts[kRounds] = {};
  bool torn = false;
  for (int i = 0; i < 3; ++i) {
    m.spawn(static_cast<ProcId>(i), [&, i](Thread& t) {
      for (int r = 0; r < kRounds; ++r) {
        m.compute(t, static_cast<Nanos>(1000 * (i + 1)));
        ++phase_counts[r];
        barrier.arrive_and_wait(t);
        if (phase_counts[r] != 3) torn = true;  // all must arrive first
      }
    });
  }
  m.run();
  EXPECT_FALSE(torn);
}

TEST(BarrierSim, SleepingBarrierWakesSleepers) {
  Machine m(MachineParams::test_machine(3));
  Barrier<SimPlatform> barrier(m, 3, Placement::on(0),
                               LockAttributes::combined(4, kForever));
  int passed = 0;
  for (int i = 0; i < 3; ++i) {
    m.spawn(static_cast<ProcId>(i), [&, i](Thread& t) {
      m.compute(t, static_cast<Nanos>(50'000 * (i + 1)));  // long stagger
      barrier.arrive_and_wait(t);
      ++passed;
    });
  }
  m.run();
  EXPECT_EQ(passed, 3);
  EXPECT_GE(m.stats().blocks, 1u) << "staggered arrivals should sleep";
}

TEST(BarrierSim, TimedSleepBarrierCompletes) {
  // Finite sleep slices: sleepers wake periodically, re-check, complete.
  Machine m(MachineParams::test_machine(3));
  Barrier<SimPlatform> barrier(m, 3, Placement::on(0),
                               LockAttributes::combined(2, 20'000));
  int passed = 0;
  for (int i = 0; i < 3; ++i) {
    m.spawn(static_cast<ProcId>(i), [&, i](Thread& t) {
      m.compute(t, static_cast<Nanos>(40'000 * (i + 1)));
      barrier.arrive_and_wait(t);
      ++passed;
    });
  }
  m.run();
  EXPECT_EQ(passed, 3);
}

TEST(BarrierSim, BackoffDelayThinsSenseProbes) {
  // The delay attribute applies to barrier waiters too: under a backoff
  // policy they read the (remote) sense word far less often than under
  // pure spinning, across the same long wait for the last arriver.
  const auto remote_reads = [](LockAttributes waiting) {
    Machine m(MachineParams::test_machine(3));
    Barrier<SimPlatform> barrier(m, 3, Placement::on(0), waiting);
    for (int i = 0; i < 3; ++i) {
      m.spawn(static_cast<ProcId>(i), [&, i](Thread& t) {
        m.compute(t, i == 0 ? 200'000 : 1000);  // proc 0 arrives last
        barrier.arrive_and_wait(t);
      });
    }
    m.run();
    return m.stats().reads_remote;
  };
  const std::uint64_t spin = remote_reads(LockAttributes::spin());
  const std::uint64_t backoff =
      remote_reads(LockAttributes::backoff_spin(1000));
  EXPECT_LT(backoff * 4, spin) << "backoff " << backoff << ", spin " << spin;
}

TEST(BarrierSim, DegenerateTupleObservesSenseFlip) {
  Machine m(MachineParams::test_machine(3));
  Barrier<SimPlatform> barrier(m, 3, Placement::on(0), kNoPhase);
  int passed = 0;
  for (int i = 0; i < 3; ++i) {
    m.spawn(static_cast<ProcId>(i), [&, i](Thread& t) {
      m.compute(t, static_cast<Nanos>(10'000 * (i + 1)));
      barrier.arrive_and_wait(t);
      ++passed;
    });
  }
  m.run(10'000'000);
  EXPECT_EQ(passed, 3);
}

TEST(BarrierNative, PhasedComputation) {
  native::Domain dom;
  constexpr int kThreads = 4, kRounds = 50;
  Barrier<NP> barrier(dom, kThreads, Placement::any(),
                      LockAttributes::combined(256, kForever));
  std::atomic<int> counts[kRounds];
  for (auto& c : counts) c.store(0);
  std::atomic<bool> torn{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      native::Context ctx(dom);
      for (int r = 0; r < kRounds; ++r) {
        counts[r].fetch_add(1);
        barrier.arrive_and_wait(ctx);
        if (counts[r].load() != kThreads) torn.store(true);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(torn.load());
}

TEST(BarrierNative, SpinPolicyFinishesOnOneCore) {
  native::Domain dom;
  constexpr int kThreads = 4, kRounds = 1000;
  Barrier<NP> barrier(dom, kThreads, Placement::any(), LockAttributes::spin());
  std::atomic<int> arrived{0};
  std::atomic<bool> torn{false};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      native::Context ctx(dom);
      for (int r = 0; r < kRounds; ++r) {
        arrived.fetch_add(1);
        barrier.arrive_and_wait(ctx);
        if (arrived.load() < kThreads * (r + 1)) torn.store(true);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, kOneCoreBound);
  EXPECT_FALSE(torn.load());
}

}  // namespace
}  // namespace relock
