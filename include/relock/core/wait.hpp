// The waiting component Phi (paper section 3.2): "a thread spins and
// sleeps in turn until it acquires the lock", driven by the four Table 1
// attributes (spin count, delay, sleep time, timeout). This is the one
// spin/sleep round loop in the library. ConfigurableLock runs it for its
// queued and centralized waits, Semaphore and ConditionVariable for their
// grant flags, and Barrier for its sense word; each supplies only the probe
// and the sleep phase. The lock also passes its lock-only inputs (owner
// advice, monitor counts, trace tag); the other primitives pass none.
#pragma once

#include <algorithm>
#include <cstdint>

#include "relock/core/attributes.hpp"
#include "relock/monitor/lock_monitor.hpp"
#include "relock/platform/backoff.hpp"
#include "relock/platform/platform.hpp"
#include "relock/platform/trace_hooks.hpp"

namespace relock {

/// kAgain: a sleep phase ended with neither outcome; run another round.
enum class WaitResult : std::uint8_t { kGranted, kTimedOut, kAgain };

/// The lock object's observers of a wait. Primitives pass the default.
struct WaitTaps {
  LockMonitor* monitor = nullptr;   ///< spin-probe and block counts
  const TraceTag* trace = nullptr;  ///< park/unpark trace markers
};

/// No owner advice: the configured tuple runs every round unchanged.
struct NoAdvice {
  void operator()(std::uint32_t&, Nanos&) const noexcept {}
};

/// Failed probes an oversubscribed spin-policy waiter tolerates before it
/// parks outright (it registered sleepable, so its grant signals the
/// parker). Zero: park on the first failed probe. Handoffs faster than the
/// park entry deposit a token the park consumes without sleeping, so the
/// fast-handoff case stays cheap, while every avoided yield/pause keeps a
/// doomed spinner off the run queue the grant-producing thread needs.
inline constexpr std::uint32_t kStreakBeforeParkOversubscribed = 0;

template <Platform P>
[[nodiscard]] bool expired(typename P::Context& ctx, Nanos deadline) {
  return deadline != kForever && P::now(ctx) >= deadline;
}

/// Parks for one sleep phase: until woken when both bounds are infinite,
/// else for at most `sleep_ns` and never past `deadline`. Returns false,
/// without parking, when the deadline has passed.
template <Platform P>
bool park(typename P::Context& ctx, Nanos sleep_ns, Nanos deadline,
          const WaitTaps& taps) {
  if (taps.monitor != nullptr) taps.monitor->on_block();
  Nanos bound = sleep_ns;
  if (deadline != kForever) {
    const Nanos now = P::now(ctx);
    if (now >= deadline) return false;
    bound = std::min(bound, deadline - now);
  }
  if (taps.trace != nullptr) {
    trc_event<P>(ctx, *taps.trace, LockEvent::kPark, ctx.self());
  }
  if (bound == kForever) {
    P::block(ctx);
  } else {
    (void)P::block_for(ctx, bound);
  }
  if (taps.trace != nullptr) {
    trc_event<P>(ctx, *taps.trace, LockEvent::kUnpark, ctx.self());
  }
  return true;
}

/// Phi: rounds of a spin phase followed by a sleep phase. `probe()` tries
/// for the grant once; `sleep(ns)` runs one sleep phase and returns
/// kGranted or kTimedOut to end the wait, kAgain for another round.
/// `advise(probes, sleep_ns)` may override each round's plan (the lock's
/// advisory mode). `park_early` is the waiter's registered sleepable flag:
/// its granter will wake it, so under oversubscription it may stop
/// spinning early (a waiter no granter wakes passes false).
template <Platform P, typename Probe, typename Sleep,
          typename Advise = NoAdvice>
WaitResult wait_rounds(typename P::Context& ctx, const LockAttributes& attrs,
                       Nanos deadline, bool park_early, Probe probe,
                       Sleep sleep, const WaitTaps& taps = {},
                       Advise advise = {}) {
  // Pure backoff spinning grows the delay geometrically (Anderson);
  // mixed spin/sleep policies use a constant probe gap so "spin N times"
  // spans a predictable window before the sleep phase.
  BackoffSchedule backoff(BackoffSchedule::Params{
      attrs.delay_ns != 0 ? attrs.delay_ns : 1,
      attrs.sleep_ns > 0 ? attrs.delay_ns : attrs.delay_ns * 16, 2});
  std::uint32_t streak = 0;
  for (;;) {
    std::uint32_t probes = attrs.spin_count;
    Nanos sleep_ns = attrs.sleep_ns;
    advise(probes, sleep_ns);
    // A round with neither phase still probes once: the degenerate
    // (0,_,0,_) tuple must observe its grant and its deadline.
    if (probes == 0 && sleep_ns == 0) probes = 1;

    // Spin phase.
    for (std::uint32_t i = 0; i < probes;) {
      if (probe()) return WaitResult::kGranted;
      if (taps.monitor != nullptr) taps.monitor->on_spin_probe();
      if (expired<P>(ctx, deadline)) return WaitResult::kTimedOut;
      if (attrs.delay_ns != 0) {
        P::delay(ctx, backoff.next());
      } else if (park_early && streak >= kStreakBeforeParkOversubscribed &&
                 oversubscribed<P>(ctx)) {
        // Oversubscription escalation: once the streak shows the grant-
        // holder is not being scheduled, stop probing - every yield a
        // doomed spinner takes steals a quantum from the thread that must
        // produce the grant. A policy with a sleep phase of its own breaks
        // to it early (without this, a combined policy burns its whole
        // spin budget as yields every round and lands far below both pure
        // spin and pure blocking - the fcfs/combined_100 collapse in
        // BENCH_native_throughput); a policy without one parks right here.
        // The streak is not reset on wakeup, so the budget does not re-
        // arm: a still-oversubscribed waiter goes straight back to
        // sleeping. Only waiters registered sleepable escalate (their
        // grant signals the parker; the token protocol absorbs a grant
        // landing between the check and the park).
        if (sleep_ns != 0) {
          // One spin step before the early sleep: a timed park alone
          // carries no progress guarantee in the relock-check model (its
          // timeout re-arms without a gated point, so a maximal adversary
          // can starve the releaser forever), and the gated pause/yield
          // inside spin_step is what hands the schedule back. On hardware
          // it costs one PAUSE.
          spin_step<P>(ctx, streak);
          break;  // to this policy's own sleep phase
        }
        if (!park<P>(ctx, kForever, deadline, taps)) {
          return WaitResult::kTimedOut;
        }
      } else {
        spin_step<P>(ctx, streak);
      }
      if (probes != kInfiniteSpins) ++i;
    }

    // Sleep phase.
    if (sleep_ns == 0) continue;
    if (const WaitResult r = sleep(sleep_ns); r != WaitResult::kAgain) {
      return r;
    }
  }
}

/// Queued waiting: probes (or sleeps on) the waiter's own grant flag, which
/// its granter sets before waking it - the lock's queued kinds, Semaphore
/// and ConditionVariable.
template <Platform P, typename Granted, typename Advise = NoAdvice>
WaitResult wait_queued(typename P::Context& ctx, const LockAttributes& attrs,
                       Nanos deadline, bool park_early, Granted granted,
                       const WaitTaps& taps = {}, Advise advise = {}) {
  return wait_rounds<P>(
      ctx, attrs, deadline, park_early, granted,
      [&](Nanos sleep_ns) {
        if (granted()) return WaitResult::kGranted;
        if (!park<P>(ctx, sleep_ns, deadline, taps)) {
          return WaitResult::kTimedOut;
        }
        if (granted()) return WaitResult::kGranted;
        return expired<P>(ctx, deadline) ? WaitResult::kTimedOut
                                         : WaitResult::kAgain;
      },
      taps, advise);
}

}  // namespace relock
