// relock-check smoke suite: exhaustive preemption-bounded DFS over the
// 2-thread scenarios (and bounded-depth passes over the 3-thread one),
// asserting every schedule satisfies every oracle and that the bounded
// schedule space was explored *completely*. Schedule counts are printed so
// EXPERIMENTS.md can cite real exploration sizes.
#include <gtest/gtest.h>

#include <cstdio>

#include "check_async_scenarios.hpp"
#include "check_engine_scenarios.hpp"
#include "check_scenarios.hpp"
#include "relock/check/strategies.hpp"

namespace {

using namespace relock::chk;

void expect_exhaustive(const Scenario& s, std::uint32_t bound) {
  Engine eng;
  DfsStrategy st(bound, /*max_schedules=*/0);
  const ExploreResult r = eng.explore(s, st);
  EXPECT_FALSE(r.failed) << r.summary();
  EXPECT_TRUE(r.complete) << r.summary();
  EXPECT_TRUE(st.exhausted()) << "bounded space not exhausted: "
                              << r.summary();
  std::printf("[relock-check] %-16s %-12s %8llu schedules %10llu points\n",
              s.name.c_str(), st.describe().c_str(),
              static_cast<unsigned long long>(r.schedules),
              static_cast<unsigned long long>(r.steps));
}

TEST(RelockCheckSmoke, Handoff2Exhaustive) {
  expect_exhaustive(scenarios::handoff2(), 2);
}

TEST(RelockCheckSmoke, ParkedHandoff2Exhaustive) {
  expect_exhaustive(scenarios::parked_handoff2(), 2);
}

TEST(RelockCheckSmoke, Epoch2Exhaustive) {
  expect_exhaustive(scenarios::epoch2(), 2);
}

TEST(RelockCheckSmoke, Possess2Exhaustive) {
  expect_exhaustive(scenarios::possess2(), 2);
}

TEST(RelockCheckSmoke, Timeout2Exhaustive) {
  expect_exhaustive(scenarios::timeout2(), 2);
}

TEST(RelockCheckSmoke, AttrTear2Exhaustive) {
  // configure_waiting spin <-> blocking against a timed waiter's snapshot
  // read: no torn tuple, no waiter left spinning.
  expect_exhaustive(scenarios::attr_tear2(), 2);
}

TEST(RelockCheckSmoke, Swap2Exhaustive) {
  expect_exhaustive(scenarios::swap2(), 2);
}

TEST(RelockCheckSmoke, FissileArrival2Exhaustive) {
  // fu.cas vs arr.mark: the held->free CAS of a fissile release against
  // the first waiter's push + contended-bit mark, every ordering.
  expect_exhaustive(scenarios::fissile_arrival2(), 2);
}

TEST(RelockCheckSmoke, FissileConfig2Exhaustive) {
  // Fissile cycles against a scheduler swap's quiescence epoch, including
  // fast-mode re-entry after the install.
  expect_exhaustive(scenarios::fissile_config2(), 2);
}

TEST(RelockCheckSmoke, QueueArrival2Exhaustive) {
  // qa.swap/qa.first vs fu.cas vs qc.first: the MCS enqueue against the
  // fissile release and the queued fast release's cell pop.
  expect_exhaustive(scenarios::queue_arrival2(), 2);
}

TEST(RelockCheckSmoke, QueueTimeout2Exhaustive) {
  // MCS-with-timeout node self-removal racing the holder's release.
  expect_exhaustive(scenarios::queue_timeout2(), 2);
}

TEST(RelockCheckSmoke, QueueConfig2Exhaustive) {
  // kQueue -> kFcfs -> kQueue reconfiguration with linked waiters:
  // configuration delay, cell drain, and FIFO across the generations.
  expect_exhaustive(scenarios::queue_config2(), 2);
}

TEST(RelockCheckSmoke, EngineTick2Exhaustive) {
  // PolicyEngine::tick() flipping the waiting policy (flip-flop forcer)
  // against a worker's timed acquire and plain cycle: the governor's
  // possess/configure footprint racing the lock paths, with an end-state
  // oracle on the applied count and final configuration.
  expect_exhaustive(scenarios::engine_tick2(), 2);
}

TEST(RelockCheckSmoke, EngineStorm2Exhaustive) {
  // Two engines force opposing scheduler kinds on one lock: possession
  // fast-fail contention, back-to-back scheduler swaps with the
  // configuration delay, and lock cycles threading through whichever
  // module is installed or pending.
  expect_exhaustive(scenarios::engine_storm2(), 2);
}

#if RELOCK_ASYNC_ENABLED
TEST(RelockCheckSmoke, AsyncGrant2Exhaustive) {
  // A coroutine's timed wait (manager executor: inbox post, timer
  // withdrawal, resume) races the holder's grant and a scheduler swap.
  expect_exhaustive(scenarios::async_grant2(), 2);
}

TEST(RelockCheckSmoke, AsyncInline2Exhaustive) {
  // Regression: an inline-resumed frame's unlock vs a timed waiter
  // draining the fast-release epoch under meta - deadlocks if the grant
  // hook fires before the in-flight count retires.
  expect_exhaustive(scenarios::async_inline2(), 2);
}
#endif

TEST(RelockCheckSmoke, MonitorReset2Exhaustive) {
  // Snapshot-coherent monitor reset racing a lock/unlock stream: the
  // scenario body asserts that no explored schedule sees a counter window
  // wrapped below zero.
  expect_exhaustive(scenarios::monitor_reset2(), 2);
}

// 3 threads: bound 2 is ~57k schedules (~2s); bound 3 (~2.1M schedules,
// ~1 min) runs under the `stress` ctest label, see check_deep_test.
TEST(RelockCheckSmoke, Fanout3Bound2Exhaustive) {
  expect_exhaustive(scenarios::fanout3(), 2);
}

TEST(RelockCheckSmoke, Guarded3Bound2Exhaustive) {
  // Possession window forcing a fissile releaser onto the guarded handoff
  // path - the fast->full->fast round trip with a waiter in flight.
  expect_exhaustive(scenarios::guarded3(), 2);
}

TEST(RelockCheckSmoke, ActiveStop3Bound2Exhaustive) {
  // stop_serving racing an active lock's posted releases: no release may
  // be posted after the stopping manager's last mailbox read.
  expect_exhaustive(scenarios::active_stop3(), 2);
}

// The engine is deterministic: the same strategy explores the identical
// schedule space, point for point.
TEST(RelockCheckSmoke, ExplorationIsDeterministic) {
  ExploreResult runs[2];
  for (auto& r : runs) {
    Engine eng;
    DfsStrategy st(2);
    r = eng.explore(scenarios::handoff2(), st);
  }
  EXPECT_EQ(runs[0].schedules, runs[1].schedules);
  EXPECT_EQ(runs[0].steps, runs[1].steps);
  EXPECT_FALSE(runs[0].failed);
}

// Replaying a trace that does not belong to the scenario is flagged as
// divergence instead of silently exploring something else.
TEST(RelockCheckSmoke, ReplayFlagsDivergence) {
  Engine eng;
  const ExploreResult r = eng.replay(scenarios::handoff2(), "r0.r0");
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.failure.find("diverged"), std::string::npos) << r.failure;
}

}  // namespace
