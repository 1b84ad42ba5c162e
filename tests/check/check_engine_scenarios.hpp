// Scenarios for the closed-loop adaptation engine (relock/adapt/
// policy_engine.hpp): PolicyEngine::tick() driven from model threads so
// exhaustive DFS explores reconfiguration storms - an engine flip racing
// a worker's acquire/release/timeout, and two engines contending on
// attribute possession while issuing back-to-back scheduler flips.
//
// Kept separate from check_scenarios.hpp for the same reason the table
// scenarios are: the seeded-bug regression TUs keep compiling exactly the
// library they always did.
//
// The test policies below are deterministic forcers, not cost models: a
// policy's evaluate() consumes host-side monitor state (no scheduling
// points), so what DFS explores is precisely the engine's possession/
// configure footprint against the lock paths - the surface under test.
#pragma once

#include <memory>

#include "check_scenarios.hpp"
#include "relock/adapt/policy_engine.hpp"

namespace relock::chk::scenarios {

using Engine2 = relock::adapt::PolicyEngine<CheckPlatform>;

/// Alternates the waiting policy every evaluation: combined (spin-then-
/// sleep) first, pure spin next. Always engages, so every tick carries a
/// real reconfiguration.
class FlipFlopWaitPolicy final : public adapt::AdaptationPolicy {
 public:
  std::optional<adapt::AdaptAction> evaluate(
      const adapt::StatsDelta&) override {
    flip_ = !flip_;
    return adapt::AdaptAction{adapt::SetWaitingPolicy{
        flip_ ? LockAttributes::combined(1, kForever)
              : LockAttributes::spin()}};
  }

 private:
  bool flip_ = false;
};

/// Forces one scheduler kind unconditionally; the engine's no-op
/// suppression drops it once the lock is already there.
class ForceSchedulerPolicy final : public adapt::AdaptationPolicy {
 public:
  explicit ForceSchedulerPolicy(SchedulerKind k) : kind_(k) {}
  std::optional<adapt::AdaptAction> evaluate(
      const adapt::StatsDelta&) override {
    return adapt::AdaptAction{adapt::SetScheduler{kind_}};
  }

 private:
  SchedulerKind kind_;
};

/// One governor ticking a flip-flopping waiting policy against a worker
/// whose acquisitions cross the reconfigurations: a timed (timeout-path)
/// acquire under a blocking-capable configuration, then a plain cycle.
/// Oracles: mutual exclusion, liveness, epoch safety across the
/// configure_waiting quiescence windows.
inline Scenario engine_tick2() {
  Scenario s;
  s.name = "engine_tick2";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs);
    auto eng = std::make_shared<Engine2>(Engine2::Options{
        /*capacity=*/4, /*max_actions_per_tick=*/1, /*cooldown_ticks=*/0,
        /*policy_factory=*/nullptr});
    eng->register_lock(*lk, std::make_unique<FlipFlopWaitPolicy>());
    f.add_thread(1, [lk](Context& ctx) {
      if (lk->lock_for(ctx, 300)) {
        ctx.cs_enter();
        ctx.cs_exit();
        lk->unlock(ctx);
      }
      lock_cycle(lk, ctx);
    });
    f.add_thread(1, [lk, eng](Context& ctx) {
      eng->tick(ctx);  // -> combined(1, forever)
      eng->tick(ctx);  // -> back to spin
    });
    Engine* chk = &f.engine();
    f.on_finish([eng, lk, chk] {
      const Engine2::Counters& c = eng->counters();
      if (c.applied != 2) {
        chk->fail_host("engine_tick2: both flips must apply "
                       "(nothing contends on possession here)");
      }
      if (lk->attributes() != LockAttributes::spin()) {
        chk->fail_host("engine_tick2: final configuration must be "
                       "the second flip's pure spin");
      }
    });
  };
  return s;
}

/// Reconfiguration storm: two engines govern the same lock with opposing
/// scheduler forcers (kQueue vs kPriorityThreshold from a kFcfs start),
/// each ticking then running a lock cycle. DFS drives every interleaving
/// of the two try_possess fast-fails, the back-to-back scheduler swaps
/// (configuration delay, cell drain) and the cycles threading through
/// whichever module is installed or pending. The rate limiter's
/// possession fast-fail is the surface: a lost possession defers, never
/// spins, so the storm stays live.
inline Scenario engine_storm2() {
  Scenario s;
  s.name = "engine_storm2";
  s.fairness = FairnessMode::kFcfs;
  s.build = [](ScenarioFrame& f) {
    auto lk = make_lock(f, SchedulerKind::kFcfs);
    const Engine2::Options opts{/*capacity=*/4, /*max_actions_per_tick=*/1,
                                /*cooldown_ticks=*/0,
                                /*policy_factory=*/nullptr};
    auto e1 = std::make_shared<Engine2>(opts);
    auto e2 = std::make_shared<Engine2>(opts);
    e1->register_lock(
        *lk, std::make_unique<ForceSchedulerPolicy>(SchedulerKind::kQueue));
    e2->register_lock(*lk, std::make_unique<ForceSchedulerPolicy>(
                               SchedulerKind::kPriorityThreshold));
    f.add_thread(1, [lk, e1](Context& ctx) {
      e1->tick(ctx);
      lock_cycle(lk, ctx);
    });
    f.add_thread(1, [lk, e2](Context& ctx) {
      e2->tick(ctx);
      lock_cycle(lk, ctx);
    });
    Engine* chk = &f.engine();
    f.on_finish([e1, e2, lk, chk] {
      // Each engine either applied its flip or lost possession and
      // deferred - but the two must never BOTH lose (fetch_or decides a
      // winner) and every emitted action is accounted for.
      const Engine2::Counters& c1 = e1->counters();
      const Engine2::Counters& c2 = e2->counters();
      if (c1.possession_busy != 0 && c2.possession_busy != 0) {
        chk->fail_host("engine_storm2: possession fast-fail lost on "
                       "both sides of one race");
      }
      if (c1.applied + c1.possession_busy != 1 ||
          c2.applied + c2.possession_busy != 1) {
        chk->fail_host("engine_storm2: every tick must apply or "
                       "defer exactly its one forced action");
      }
      const SchedulerKind k = lk->target_scheduler_kind();
      if (c1.applied == 1 && c2.applied == 0 &&
          k != SchedulerKind::kQueue) {
        chk->fail_host("engine_storm2: lone e1 flip must leave "
                       "arrivals targeting kQueue");
      }
      if (c2.applied == 1 && c1.applied == 0 &&
          k != SchedulerKind::kPriorityThreshold) {
        chk->fail_host("engine_storm2: lone e2 flip must leave "
                       "arrivals targeting kPriorityThreshold");
      }
    });
  };
  return s;
}

}  // namespace relock::chk::scenarios
