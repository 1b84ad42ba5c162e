// Direct unit tests of the scheduler modules (Gamma) and the WaiterQueue
// they are built on, plus dynamic installation of a user-supplied scheduler
// (EdfScheduler) through the lock's configure_scheduler extension point.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "relock/core/configurable_lock.hpp"
#include "relock/core/edf_scheduler.hpp"
#include "relock/core/scheduler.hpp"
#include "relock/sim/machine.hpp"

namespace relock {
namespace {

using sim::Machine;
using sim::MachineParams;
using sim::ProcId;
using sim::SimPlatform;
using sim::Thread;

using Rec = WaiterRecord<SimPlatform>;

/// Test fixture owning a machine so records can allocate grant words.
class SchedulerUnit : public ::testing::Test {
 protected:
  SchedulerUnit() : machine_(MachineParams::test_machine(2)) {}

  Rec& make(ThreadId tid, Priority prio = 0, bool shared = false) {
    recs_.emplace_back(machine_, tid, prio, Placement::on(0), shared,
                       /*may_sleep=*/false);
    return recs_.back();
  }

  /// One select: the grantee and the rest of its batch, in grant order.
  static std::vector<ThreadId> select_batch(Scheduler<SimPlatform>& s,
                                            ThreadId hint = kInvalidThread) {
    std::vector<ThreadId> batch;
    for (Rec* r = s.select(hint); r != nullptr; r = r->batch_next) {
      batch.push_back(r->tid);
    }
    return batch;
  }

  static std::vector<ThreadId> select_all(Scheduler<SimPlatform>& s,
                                          ThreadId hint = kInvalidThread) {
    std::vector<ThreadId> order;
    while (!s.empty()) {
      const std::vector<ThreadId> batch = select_batch(s, hint);
      if (batch.empty()) break;  // e.g. all below threshold
      order.insert(order.end(), batch.begin(), batch.end());
    }
    return order;
  }

  Machine machine_;
  std::deque<Rec> recs_;  // deque: records are immovable
};

// ------------------------------------------------------- WaiterQueue -----

TEST_F(SchedulerUnit, WaiterQueueFifoAndRemove) {
  WaiterQueue<WaiterRecord<SimPlatform>> q;
  Rec& a = make(1);
  Rec& b = make(2);
  Rec& c = make(3);
  q.push_back(a);
  q.push_back(b);
  q.push_back(c);
  EXPECT_EQ(q.front(), &a);
  q.remove(b);  // middle removal
  EXPECT_FALSE(b.queued);
  EXPECT_EQ(a.next, &c);
  EXPECT_EQ(c.prev, &a);
  q.remove(b);  // idempotent
  EXPECT_EQ(a.next, &c);
  q.remove(a);  // head removal
  EXPECT_EQ(q.front(), &c);
  q.remove(c);  // tail removal
  EXPECT_TRUE(q.empty());
}

TEST_F(SchedulerUnit, WaiterQueueForEachEarlyStop) {
  WaiterQueue<WaiterRecord<SimPlatform>> q;
  Rec& a = make(1);
  Rec& b = make(2);
  q.push_back(a);
  q.push_back(b);
  int visited = 0;
  q.for_each([&](Rec&) {
    ++visited;
    return false;  // stop after the first
  });
  EXPECT_EQ(visited, 1);
}

// --------------------------------------------------------- FCFS ----------

TEST_F(SchedulerUnit, FcfsSelectsInArrivalOrder) {
  FcfsScheduler<SimPlatform> s;
  s.enqueue(make(5));
  s.enqueue(make(3));
  s.enqueue(make(9));
  EXPECT_EQ(select_all(s), (std::vector<ThreadId>{5, 3, 9}));
}

TEST_F(SchedulerUnit, FcfsRemoveWithdrawsWaiter) {
  FcfsScheduler<SimPlatform> s;
  Rec& a = make(1);
  Rec& b = make(2);
  s.enqueue(a);
  s.enqueue(b);
  s.remove(a);
  EXPECT_EQ(select_all(s), (std::vector<ThreadId>{2}));
}

// ----------------------------------------------------- PriorityQueue -----

TEST_F(SchedulerUnit, PriorityQueueSelectsHighestFirst) {
  PriorityQueueScheduler<SimPlatform> s;
  s.enqueue(make(1, 1));
  s.enqueue(make(2, 9));
  s.enqueue(make(3, 5));
  EXPECT_EQ(select_all(s), (std::vector<ThreadId>{2, 3, 1}));
}

TEST_F(SchedulerUnit, PriorityQueueFifoAmongEquals) {
  PriorityQueueScheduler<SimPlatform> s;
  s.enqueue(make(1, 7));
  s.enqueue(make(2, 7));
  s.enqueue(make(3, 7));
  EXPECT_EQ(select_all(s), (std::vector<ThreadId>{1, 2, 3}));
}

// -------------------------------------------------- PriorityThreshold ----

TEST_F(SchedulerUnit, ThresholdSelectsNobodyWhenAllIneligible) {
  PriorityThresholdScheduler<SimPlatform> s;
  s.set_threshold(10);
  s.enqueue(make(1, 3));
  s.enqueue(make(2, 7));
  EXPECT_EQ(s.select(kInvalidThread), nullptr);
  EXPECT_FALSE(s.empty()) << "ineligible waiters stay registered";
  EXPECT_EQ(s.pop_any()->tid, 1u);
  EXPECT_EQ(s.pop_any()->tid, 2u);
  EXPECT_TRUE(s.empty());
}

TEST_F(SchedulerUnit, ThresholdFcfsAmongEligible) {
  PriorityThresholdScheduler<SimPlatform> s;
  s.set_threshold(5);
  s.enqueue(make(1, 3));   // ineligible
  s.enqueue(make(2, 8));   // eligible, first
  s.enqueue(make(3, 20));  // eligible but later (no priority order!)
  EXPECT_EQ(select_batch(s), (std::vector<ThreadId>{2}));
  EXPECT_EQ(select_batch(s), (std::vector<ThreadId>{3}));
  EXPECT_EQ(s.select(kInvalidThread), nullptr) << "threshold 5 still holds";
  EXPECT_EQ(s.pop_any()->tid, 1u);
  EXPECT_TRUE(s.empty());
}

TEST_F(SchedulerUnit, ThresholdDropMakesWaitersEligible) {
  PriorityThresholdScheduler<SimPlatform> s;
  s.set_threshold(10);
  s.enqueue(make(1, 3));
  EXPECT_EQ(s.select(kInvalidThread), nullptr);
  s.set_threshold(0);
  EXPECT_EQ(select_batch(s), (std::vector<ThreadId>{1}));
  EXPECT_TRUE(s.empty());
}

// ----------------------------------------------------------- Handoff -----

TEST_F(SchedulerUnit, HandoffHonorsHint) {
  HandoffScheduler<SimPlatform> s;
  s.enqueue(make(1));
  s.enqueue(make(2));
  s.enqueue(make(3));
  EXPECT_EQ(select_batch(s, /*hint=*/3), (std::vector<ThreadId>{3}));
  EXPECT_EQ(select_all(s), (std::vector<ThreadId>{1, 2}));
}

TEST_F(SchedulerUnit, HandoffFallsBackToFcfsOnMissingHint) {
  HandoffScheduler<SimPlatform> s;
  s.enqueue(make(1));
  s.enqueue(make(2));
  EXPECT_EQ(select_batch(s, /*hint=*/77), (std::vector<ThreadId>{1}));
}

// ------------------------------------------------------ ReaderWriter -----

TEST_F(SchedulerUnit, RwFifoBatchesLeadingReaders) {
  ReaderWriterScheduler<SimPlatform> s(RwPreference::kFifo);
  s.enqueue(make(1, 0, /*shared=*/true));
  s.enqueue(make(2, 0, /*shared=*/true));
  s.enqueue(make(3, 0, /*shared=*/false));
  s.enqueue(make(4, 0, /*shared=*/true));
  // Readers 1 and 2 batch together, then the writer goes alone.
  EXPECT_EQ(select_batch(s), (std::vector<ThreadId>{1, 2}));
  EXPECT_EQ(select_batch(s), (std::vector<ThreadId>{3}));
  EXPECT_EQ(select_batch(s), (std::vector<ThreadId>{4}));
  EXPECT_TRUE(s.empty());
}

TEST_F(SchedulerUnit, RwReaderPrefTakesAllReaders) {
  ReaderWriterScheduler<SimPlatform> s(RwPreference::kReaderPref);
  s.enqueue(make(1, 0, true));
  s.enqueue(make(2, 0, false));
  s.enqueue(make(3, 0, true));
  // Both readers, past the queued writer.
  EXPECT_EQ(select_batch(s), (std::vector<ThreadId>{1, 3}));
  EXPECT_EQ(select_batch(s), (std::vector<ThreadId>{2}));
}

TEST_F(SchedulerUnit, RwWriterPrefTakesWriterFirst) {
  ReaderWriterScheduler<SimPlatform> s(RwPreference::kWriterPref);
  s.enqueue(make(1, 0, true));
  s.enqueue(make(2, 0, true));
  s.enqueue(make(3, 0, false));
  EXPECT_EQ(select_batch(s), (std::vector<ThreadId>{3}));
  EXPECT_EQ(select_batch(s), (std::vector<ThreadId>{1, 2}));
}

// ------------------------------------------------------------- EDF -------

TEST_F(SchedulerUnit, EdfSelectsEarliestDeadline) {
  EdfScheduler<SimPlatform> s;
  s.enqueue(make(1, 300));  // deadline 300
  s.enqueue(make(2, 100));  // deadline 100: most urgent
  s.enqueue(make(3, 200));
  EXPECT_EQ(select_all(s), (std::vector<ThreadId>{2, 3, 1}));
  EXPECT_EQ(s.kind(), SchedulerKind::kCustom);
}

// ------------------------------------------------ batch_next contract ---

TEST_F(SchedulerUnit, ExclusiveSelectionsLeaveBatchNextNull) {
  // Only a reader batch is chained: every exclusive kind (and a custom
  // module built on QueuedScheduler) hands back a lone record, which the
  // lock's grant loop treats as the whole batch.
  std::vector<std::unique_ptr<Scheduler<SimPlatform>>> mods;
  for (const SchedulerKind k :
       {SchedulerKind::kFcfs, SchedulerKind::kPriorityQueue,
        SchedulerKind::kPriorityThreshold, SchedulerKind::kHandoff}) {
    mods.push_back(make_scheduler<SimPlatform>(k));
  }
  mods.push_back(std::make_unique<EdfScheduler<SimPlatform>>());
  for (const auto& s : mods) {
    for (ThreadId tid = 1; tid <= 3; ++tid) s->enqueue(make(tid, 5));
    for (int i = 0; i < 3; ++i) {
      Rec* const r = s->select(kInvalidThread);
      ASSERT_NE(r, nullptr) << static_cast<int>(s->kind());
      EXPECT_EQ(r->batch_next, nullptr) << static_cast<int>(s->kind());
    }
    EXPECT_TRUE(s->empty());
  }
}

// --------------------------------------------------- factory / kinds -----

TEST_F(SchedulerUnit, FactoryProducesMatchingKinds) {
  for (const SchedulerKind k :
       {SchedulerKind::kFcfs, SchedulerKind::kPriorityQueue,
        SchedulerKind::kPriorityThreshold, SchedulerKind::kHandoff,
        SchedulerKind::kReaderWriter}) {
    const auto s = make_scheduler<SimPlatform>(k);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->kind(), k);
    EXPECT_TRUE(s->empty());
    EXPECT_EQ(s->select(kInvalidThread), nullptr);
    EXPECT_EQ(s->pop_any(), nullptr);
  }
  EXPECT_EQ(make_scheduler<SimPlatform>(SchedulerKind::kNone), nullptr);
}

// ----------------------------------- custom scheduler through the lock ---

TEST(CustomScheduler, EdfInstalledDynamicallyOrdersGrantsByDeadline) {
  Machine m(MachineParams::test_machine(5));
  ConfigurableLock<SimPlatform>::Options o;
  o.scheduler = SchedulerKind::kFcfs;
  o.placement = Placement::on(0);
  ConfigurableLock<SimPlatform> lock(m, o);
  std::vector<int> order;
  m.spawn(0, [&](Thread& t) {
    // Install the user-supplied EDF module while the lock is idle.
    lock.configure_scheduler(t,
                             std::make_unique<EdfScheduler<SimPlatform>>());
    EXPECT_EQ(lock.scheduler_kind(), SchedulerKind::kCustom);
    ASSERT_TRUE(lock.lock(t));
    m.compute(t, 200'000);  // waiters with deadlines 30, 10, 20 queue
    lock.unlock(t);
  });
  const int deadlines[] = {30, 10, 20};
  for (int i = 0; i < 3; ++i) {
    m.spawn(static_cast<ProcId>(i + 1), [&, i](Thread& t) {
      t.set_priority(deadlines[i]);
      m.compute(t, static_cast<Nanos>(3000 * (i + 1)));
      ASSERT_TRUE(lock.lock(t));
      order.push_back(deadlines[i]);
      lock.unlock(t);
    });
  }
  m.run();
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
}

}  // namespace
}  // namespace relock
