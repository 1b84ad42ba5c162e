// Scenario library for the relock-check tests: each function returns a
// reusable chk::Scenario whose build hook constructs a fresh
// ConfigurableLock<CheckPlatform> per schedule (held by shared_ptr so the
// lock outlives the last model thread) and registers the thread bodies.
//
// Scenario sizing is deliberate: the 2-thread scenarios are small enough
// for *exhaustive* preemption-bounded DFS (check_smoke_test), the 3-4
// thread ones are for randomized PCT exploration (check_random_test) and
// the seeded-bug regressions.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>

#include "relock/check/engine.hpp"
#include "relock/check/platform.hpp"
#include "relock/core/configurable_lock.hpp"
#ifdef RELOCK_TRACE
#include "relock/trace/trace.hpp"
#endif

namespace relock::chk::scenarios {

using Lock = relock::ConfigurableLock<CheckPlatform>;

inline std::shared_ptr<Lock> make_lock(
    ScenarioFrame& f, SchedulerKind kind,
    LockAttributes attrs = LockAttributes::spin(), bool advisory = false) {
  Lock::Options o;
  o.scheduler = kind;
  o.attributes = attrs;
  o.advisory = advisory;
  return std::make_shared<Lock>(f.domain(), o);
}

/// lock; critical section; unlock - the basic oracle-annotated cycle.
inline void lock_cycle(const std::shared_ptr<Lock>& lk, Context& ctx) {
  lk->lock(ctx);
  ctx.cs_enter();
  ctx.cs_exit();
  lk->unlock(ctx);
}

/// Two spinning threads race one FCFS lock: registration, lock-free
/// arrival, direct handoff, lost-release guard, next_grant_ pre-selection.
inline Scenario handoff2() {
  Scenario s;
  s.name = "handoff2";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs);
    for (int i = 0; i < 2; ++i) {
      f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
    }
  };
  return s;
}

/// Same race with a blocking waiting policy: waiters park on the modeled
/// parker and releases must wake them - the grant/park handshake whose
/// split-deposit variant is seeded bug 2. The holder yields between its
/// critical section and the release so the contender's registration and
/// park can interleave with the handoff without spending DFS preemptions.
inline Scenario parked_handoff2() {
  Scenario s;
  s.name = "parked_handoff2";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs, LockAttributes::blocking());
    f.add_thread(1, [lk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      CheckPlatform::yield(ctx);
      lk->unlock(ctx);
    });
    f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
  };
  return s;
}

/// A waiting-policy reconfiguration (QuiesceGuard: breaker arm, epoch
/// drain) races a lock/unlock stream: epoch-safety oracle territory.
inline Scenario epoch2() {
  Scenario s;
  s.name = "epoch2";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs);
    f.add_thread(1, [lk](Context& ctx) {
      lock_cycle(lk, ctx);
      lk->configure_waiting(ctx, LockAttributes::backoff_spin(4));
      lock_cycle(lk, ctx);
    });
    f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
  };
  return s;
}

/// Possession protocol around a reconfiguration vs. a contended cycle:
/// try_possess arms the quiescence breaker for the whole window.
inline Scenario possess2() {
  Scenario s;
  s.name = "possess2";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs);
    f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
    f.add_thread(1, [lk](Context& ctx) {
      lk->possess(ctx, AttributeClass::kWaitingPolicy);
      lk->configure_waiting(ctx, LockAttributes::spin());
      lk->release_possession(ctx, AttributeClass::kWaitingPolicy);
      lock_cycle(lk, ctx);
    });
  };
  return s;
}

/// A conditional (timed) acquisition races the holder's release: the
/// timeout may fire before, during, or after the grant; withdrawal
/// soundness and the timed waiter's standing breaker are the targets.
inline Scenario timeout2() {
  Scenario s;
  s.name = "timeout2";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs, LockAttributes::blocking());
    f.add_thread(1, [lk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      CheckPlatform::yield(ctx);
      lk->unlock(ctx);
    });
    f.add_thread(1, [lk](Context& ctx) {
      if (lk->lock_for(ctx, 300)) {
        ctx.cs_enter();
        ctx.cs_exit();
        lk->unlock(ctx);
      }
    });
  };
  return s;
}

/// Attribute traffic on the waiting path: the holder flips the waiting
/// policy spin -> blocking -> spin (configure_waiting, the governor's
/// cost-model move) while a timed waiter reads it to register. The
/// snapshot read and write are yield points, so the waiter's read can
/// straddle either write. Two oracles: every tuple a thread reads is one
/// that was configured (allow_attrs - a torn (spin, sleep) pair reads
/// (inf, forever) or (0, 0), neither configured), and every waiter
/// terminates (the engine's liveness oracle).
inline Scenario attr_tear2() {
  Scenario s;
  s.name = "attr_tear2";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    constexpr LockAttributes kSpin = LockAttributes::spin();
    constexpr LockAttributes kBlocking = LockAttributes::blocking();
    for (const LockAttributes& a : {kSpin, kBlocking}) {
      f.allow_attrs({a.spin_count, a.delay_ns, a.sleep_ns, a.timeout_ns});
    }
    auto lk = make_lock(f, SchedulerKind::kFcfs, kSpin);
    f.add_thread(1, [lk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      lk->configure_waiting(ctx, kBlocking);
      lk->configure_waiting(ctx, kSpin);
      lk->unlock(ctx);
    });
    f.add_thread(1, [lk](Context& ctx) {
      if (lk->lock_for(ctx, 300)) {
        ctx.cs_enter();
        ctx.cs_exit();
        lk->unlock(ctx);
      }
    });
  };
  return s;
}

/// A scheduler swap (FCFS -> priority queue) races a contended cycle:
/// configuration delay, pending-module registration, generation rule.
inline Scenario swap2() {
  Scenario s;
  s.name = "swap2";
  s.fairness = FairnessMode::kNone;  // two Gammas: only the generation rule
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs);
    f.add_thread(1, [lk](Context& ctx) {
      lock_cycle(lk, ctx);
      lk->configure_scheduler(ctx, SchedulerKind::kPriorityQueue);
      lock_cycle(lk, ctx);
    });
    f.add_thread(2, [lk](Context& ctx) { lock_cycle(lk, ctx); });
  };
  return s;
}

/// Three spinning threads on one FCFS lock. Deep enough that a guarded
/// grant (select-empty fast-release abort with a late-arriving waiter) can
/// overlap the new owner's own fast release - the window of seeded bug 1.
inline Scenario fanout3() {
  Scenario s;
  s.name = "fanout3";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs);
    for (int i = 0; i < 3; ++i) {
      f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
    }
  };
  return s;
}

/// Fissile fast release racing the first waiter's enqueue. The holder
/// yields between its critical section and the release so the contender's
/// record push and contended-bit mark (arr.mark) interleave with the
/// held->free CAS (fu.cas) without spending DFS preemptions. Every
/// ordering must be sound: CAS first and the arrival claims the free word
/// or registers against a free lock; mark first and the CAS fails, routing
/// the release through the full path to drain the record. The lost-grant
/// strand (fast CAS succeeding with a pushed-but-unmarked record left
/// behind) is exactly what the liveness oracle would flag.
inline Scenario fissile_arrival2() {
  Scenario s;
  s.name = "fissile_arrival2";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs);
    f.add_thread(1, [lk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      CheckPlatform::yield(ctx);
      lk->unlock(ctx);
    });
    f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
  };
  return s;
}

/// Fissile cycles racing a scheduler swap: the configure's QuiesceGuard
/// (breaker arm, epoch drain) must exclude the one-CAS release - a fast
/// release that began before the breaker armed must be drained, one that
/// starts after must observe the full path - and the lock must come back
/// fissile after the install (the fast path keys off the state word only,
/// so no re-arming step exists to forget).
inline Scenario fissile_config2() {
  Scenario s;
  s.name = "fissile_config2";
  s.fairness = FairnessMode::kNone;  // two Gammas: only the generation rule
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs);
    f.add_thread(1, [lk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      CheckPlatform::yield(ctx);
      lk->unlock(ctx);
      lock_cycle(lk, ctx);
    });
    f.add_thread(1, [lk](Context& ctx) {
      lk->configure_scheduler(ctx, SchedulerKind::kPriorityQueue);
      lock_cycle(lk, ctx);
    });
  };
  return s;
}

/// Distributed-queue handoff racing the holder's release: the contender's
/// MCS enqueue (qa.swap tail-exchange, qa.first publication, arr.mark)
/// interleaves with the holder's fissile held->free CAS and, when that
/// fails, with the queued fast release's cell pop (qc.first adoption, the
/// tail-retraction CAS). Every ordering must either grant the contender
/// by a single store to its own node or let it claim the free word; the
/// lost-grant strand (fast CAS succeeding with a linked-but-unmarked
/// node left in the cell) is what the liveness oracle would flag.
inline Scenario queue_arrival2() {
  Scenario s;
  s.name = "queue_arrival2";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kQueue);
    f.add_thread(1, [lk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      CheckPlatform::yield(ctx);
      lk->unlock(ctx);
    });
    f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
  };
  return s;
}

/// A timed distributed-queue acquisition races the holder's release:
/// MCS-with-timeout node self-removal (tail retraction against an
/// in-flight producer, cache-hit resolution at to.cache) against a grant
/// that may land before, during, or after the deadline.
inline Scenario queue_timeout2() {
  Scenario s;
  s.name = "queue_timeout2";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kQueue, LockAttributes::blocking());
    f.add_thread(1, [lk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      CheckPlatform::yield(ctx);
      lk->unlock(ctx);
    });
    f.add_thread(1, [lk](Context& ctx) {
      if (lk->lock_for(ctx, 300)) {
        ctx.cs_enter();
        ctx.cs_exit();
        lk->unlock(ctx);
      }
    });
  };
  return s;
}

/// Reconfiguration to and from the distributed queue racing contended
/// cycles: a waiter linked in the cell when the configuration moves to
/// kFcfs must be served first, by the FIFO stand-in that takes over the
/// cell's waiters, under the configuration-delay rule (or moved by the
/// cell drain if its tail-swap raced the install), and the return to
/// kQueue must serve FCFS leftovers before cell arrivals.
inline Scenario queue_config2() {
  Scenario s;
  s.name = "queue_config2";
  s.fairness = FairnessMode::kNone;  // two Gammas: only the generation rule
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kQueue);
    f.add_thread(1, [lk](Context& ctx) {
      lk->lock(ctx);
      ctx.cs_enter();
      ctx.cs_exit();
      CheckPlatform::yield(ctx);
      lk->unlock(ctx);
      lock_cycle(lk, ctx);
    });
    f.add_thread(1, [lk](Context& ctx) {
      lk->configure_scheduler(ctx, SchedulerKind::kFcfs);
      lock_cycle(lk, ctx);
      lk->configure_scheduler(ctx, SchedulerKind::kQueue);
    });
  };
  return s;
}

/// Active-lock shutdown: a polling manager serves the releases of a thread
/// running two cycles while a third thread calls stop_serving. The stop may
/// land before the manager starts, while a release is being posted, or
/// after the manager has gone; every release must still be served - a
/// post nobody reads leaves the lock held, and the second cycle's acquire
/// then spins until the step budget flags it (the no-lost-release oracle).
inline Scenario active_stop3() {
  Scenario s;
  s.name = "active_stop3";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    Lock::Options o;
    o.scheduler = SchedulerKind::kFcfs;
    o.execution = Execution::kActive;
    auto lk = std::make_shared<Lock>(f.domain(), o);
    f.add_thread(1, [lk](Context& ctx) { lk->serve(ctx); });
    f.add_thread(1, [lk](Context& ctx) {
      lock_cycle(lk, ctx);
      lock_cycle(lk, ctx);
    });
    f.add_thread(1, [lk](Context& ctx) { lk->stop_serving(ctx); });
  };
  return s;
}

#ifdef RELOCK_TRACE
/// Fissile fast acquire racing a trace enable: the fast path reads the
/// trace gate once per operation, so the toggle may land before or after
/// any given acquire/release - partial rings are expected and every
/// ordering must leave the oracles silent. The build hook resets the
/// registry so each explored schedule starts from trace-off.
inline Scenario fissile_trace2() {
  Scenario s;
  s.name = "fissile_trace2";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto& reg = trace::Registry::instance();
    reg.set_enabled(false);
    reg.clear();
    auto lk = make_lock(f, SchedulerKind::kFcfs);
    f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
    f.add_thread(1, [lk](Context& ctx) {
      trace::Registry::instance().set_enabled(true);
      lock_cycle(lk, ctx);
    });
  };
  return s;
}
#endif

/// fanout3 on an advisory lock. Advisory locks are not fissile-eligible,
/// so a releaser with no visible waiter still walks release_fast into the
/// select-empty guarded detour - the route into seeded bug 1's window
/// (grant_or_free's exclusive handoff overlapping the new owner's own
/// fast release). On a fissile lock that release is now a single CAS and
/// the detour is unreachable without a breaker armed.
inline Scenario advisory3() {
  Scenario s;
  s.name = "advisory3";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs, LockAttributes::spin(),
                        /*advisory=*/true);
    for (int i = 0; i < 3; ++i) {
      f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
    }
  };
  return s;
}

/// Guarded-handoff window: a bare possession window (breaker armed, no
/// configuration) straddling the holder's release forces it off the
/// fissile release onto the guarded path while a waiter is queued, so
/// grant_or_free's exclusive handoff can overlap the new owner's own fast
/// release once the breaker disarms - the window of seeded bug 1. (The
/// plain fanout3 can no longer reach that overlap: with no breaker armed,
/// a releaser that would have taken the select-empty guarded detour now
/// short-circuits at the fissile held->free CAS.)
inline Scenario guarded3() {
  Scenario s;
  s.name = "guarded3";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs);
    for (int i = 0; i < 2; ++i) {
      f.add_thread(1, [lk](Context& ctx) { lock_cycle(lk, ctx); });
    }
    f.add_thread(1, [lk](Context& ctx) {
      if (lk->try_possess(ctx, AttributeClass::kWaitingPolicy)) {
        lk->release_possession(ctx, AttributeClass::kWaitingPolicy);
      }
    });
  };
  return s;
}

/// Mixed-policy churn with fault injection: possession-window
/// reconfiguration, spurious parker tokens, and an oversubscription flip
/// mid-stream. PCT fodder.
inline Scenario churn3() {
  Scenario s;
  s.name = "churn3";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs,
                        LockAttributes{/*spin=*/2, /*delay=*/0,
                                       /*sleep=*/400, /*timeout=*/0});
    f.add_thread(1, [lk](Context& ctx) {
      lock_cycle(lk, ctx);
      lock_cycle(lk, ctx);
    });
    f.add_thread(1, [lk](Context& ctx) {
      lock_cycle(lk, ctx);
      if (lk->try_possess(ctx, AttributeClass::kWaitingPolicy)) {
        lk->configure_waiting(ctx, LockAttributes::blocking());
        lk->release_possession(ctx, AttributeClass::kWaitingPolicy);
      }
    });
    f.add_thread(1, [lk](Context& ctx) {
      ctx.spurious_unpark(0);
      lock_cycle(lk, ctx);
      ctx.flip_oversubscribed();
      ctx.spurious_unpark(1);
      lock_cycle(lk, ctx);
    });
  };
  return s;
}

/// Four distinct-priority threads on a priority-queue lock: the priority
/// fairness oracle (max first, FIFO among equals) on every schedule.
inline Scenario prio4() {
  Scenario s;
  s.name = "prio4";
  s.fairness = FairnessMode::kPriority;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kPriorityQueue,
                        LockAttributes::blocking());
    for (int i = 0; i < 4; ++i) {
      f.add_thread(static_cast<Priority>(i + 1),
                   [lk](Context& ctx) { lock_cycle(lk, ctx); });
    }
  };
  return s;
}

/// Threshold scheduler with a mid-stream threshold raise and reset: the
/// threshold oracle (no grant below the active threshold; FCFS among the
/// eligible) plus the reset's rescue grant of parked ineligible waiters.
inline Scenario threshold3() {
  Scenario s;
  s.name = "threshold3";
  s.fairness = FairnessMode::kThreshold;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kPriorityThreshold,
                        LockAttributes::blocking());
    f.add_thread(5, [lk](Context& ctx) {
      lock_cycle(lk, ctx);
      lk->set_priority_threshold(ctx, 3);
      lock_cycle(lk, ctx);
      lk->set_priority_threshold(ctx, 0);
    });
    f.add_thread(2, [lk](Context& ctx) { lock_cycle(lk, ctx); });
    f.add_thread(4, [lk](Context& ctx) { lock_cycle(lk, ctx); });
  };
  return s;
}

/// A monitor reset races a lock/unlock stream. LockMonitor::reset is
/// snapshot-coherent (baseline subtraction, never writes to the live
/// shards), so no schedule may observe a window where a counter appears to
/// run backwards - the failure mode is a raw-below-baseline clamp bug
/// showing up as an astronomically large unsigned "count".
inline Scenario monitor_reset2() {
  Scenario s;
  s.name = "monitor_reset2";
  s.fairness = FairnessMode::kNone;
  s.build = [](ScenarioFrame& f) {
    Lock::Options o;
    o.scheduler = SchedulerKind::kFcfs;
    o.attributes = LockAttributes::spin();
    o.monitor_enabled = true;
    auto lk = std::make_shared<Lock>(f.domain(), o);
    f.add_thread(1, [lk](Context& ctx) {
      lock_cycle(lk, ctx);
      lock_cycle(lk, ctx);
    });
    f.add_thread(1, [lk](Context& ctx) {
      lk->monitor().reset();
      const LockStats mid = lk->monitor().snapshot();
      constexpr std::uint64_t kSane = std::uint64_t{1} << 60;
      assert(mid.acquisitions < kSane);
      assert(mid.releases < kSane);
      assert(mid.total_hold_ns < kSane);
      (void)mid;
      lock_cycle(lk, ctx);
      lk->monitor().reset();
      const LockStats end = lk->monitor().snapshot();
      assert(end.acquisitions < kSane);
      assert(end.releases < kSane);
      (void)end;
    });
  };
  return s;
}

}  // namespace relock::chk::scenarios
