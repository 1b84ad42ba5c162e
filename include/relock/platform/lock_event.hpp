// The shared lock-event vocabulary: one enum naming every semantic
// transition a ConfigurableLock can report, consumed by two observers that
// are compiled in independently:
//
//   - the relock-check engine's oracles (platform/chk_hooks.hpp routes the
//     checker subset to Engine::on_event), and
//   - the relock-trace per-thread ring tracer (platform/trace_hooks.hpp
//     routes every kind to the calling thread's ring when RELOCK_TRACE is
//     compiled in).
//
// Keeping one vocabulary is what makes a native trace comparable, event for
// event, with the checker's replayed event log (asserted by
// tests/check/check_trace_test.cpp): the lock emits both streams from the
// same call sites, in the same order.
//
// The first block of enumerators is the checker's oracle vocabulary and its
// values are load-bearing: they appear in serialized event logs. New kinds
// go at the end. The second block is trace-only - the engine accepts and
// ignores them (they describe thread-local progress, not shared-state
// transitions the oracles track).
#pragma once

#include <cstdint>

namespace relock {

/// Semantic lock transitions. Events are bookkeeping, not scheduling
/// points: each is emitted in the same atomic step as the transition it
/// describes, so observer state can never be stale relative to the
/// interleaving being explored (checker) or recorded (tracer).
enum class LockEvent : std::uint8_t {
  // ---- checker oracle vocabulary (relock-check engine state machine) ----
  kRegistered,         ///< waiter published in the lock's cell / a queue
  kGranted,            ///< grant flag set for thread `arg`
  kReleaseFree,        ///< release published the state word free
  kFastReleaseBegin,   ///< fast release passed the Dekker gate
  kFastReleaseEnd,     ///< fast release retired its in-flight count
  kConfigMutateBegin,  ///< configuration operation starts mutating modules
  kConfigMutateEnd,    ///< configuration operation done mutating
  kSchedulerInstalled, ///< new registrations now target a new module
  kThresholdSet,       ///< priority threshold changed to (Priority)arg
  kTimeoutReturn,      ///< conditional acquisition returns false for `arg`
  kBreakerArm,         ///< quiesce breaker count incremented
  kBreakerDisarm,      ///< quiesce breaker count decremented

  // ---- trace-only vocabulary (thread-local progress markers) ----
  kAcquireFast,        ///< uncontended exclusive acquisition (fast path)
  kAcquireSlow,        ///< contended exclusive acquisition completed
  kAcquireShared,      ///< shared (reader) acquisition completed
  kRelease,            ///< unlock entered by the owner / a reader
  kPark,               ///< waiter is about to block on the parker
  kUnpark,             ///< waiter resumed from a block
  kPossess,            ///< attribute class `arg` possessed
  kUnpossess,          ///< attribute class `arg` possession released
};

/// Human-readable event-kind name (failure traces, trace exports).
[[nodiscard]] constexpr const char* lock_event_name(LockEvent e) noexcept {
  switch (e) {
    case LockEvent::kRegistered: return "Registered";
    case LockEvent::kGranted: return "Granted";
    case LockEvent::kReleaseFree: return "ReleaseFree";
    case LockEvent::kFastReleaseBegin: return "FastReleaseBegin";
    case LockEvent::kFastReleaseEnd: return "FastReleaseEnd";
    case LockEvent::kConfigMutateBegin: return "ConfigMutateBegin";
    case LockEvent::kConfigMutateEnd: return "ConfigMutateEnd";
    case LockEvent::kSchedulerInstalled: return "SchedulerInstalled";
    case LockEvent::kThresholdSet: return "ThresholdSet";
    case LockEvent::kTimeoutReturn: return "TimeoutReturn";
    case LockEvent::kBreakerArm: return "BreakerArm";
    case LockEvent::kBreakerDisarm: return "BreakerDisarm";
    case LockEvent::kAcquireFast: return "AcquireFast";
    case LockEvent::kAcquireSlow: return "AcquireSlow";
    case LockEvent::kAcquireShared: return "AcquireShared";
    case LockEvent::kRelease: return "Release";
    case LockEvent::kPark: return "Park";
    case LockEvent::kUnpark: return "Unpark";
    case LockEvent::kPossess: return "Possess";
    case LockEvent::kUnpossess: return "Unpossess";
  }
  return "?";
}

/// True for kinds the relock-check engine's oracles consume; the trace-only
/// kinds after them are ignored by the engine and filtered out when a trace
/// is compared against a checker event log.
[[nodiscard]] constexpr bool is_checker_event(LockEvent e) noexcept {
  return e <= LockEvent::kBreakerDisarm;
}

}  // namespace relock
