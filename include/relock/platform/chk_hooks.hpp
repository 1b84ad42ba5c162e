// Yield-point instrumentation hooks for the relock-check model checker.
//
// Lock algorithms call chk_point / chk_event / chk_select at every shared-
// memory transition that does NOT already go through a platform Word
// operation: the configuration-quiescence epoch counters, the next_grant_
// pre-selection cache, the scheduler module's queue, the arrival-link
// publish window, and the seqlock attribute snapshots all live in host-side
// memory, so without these hooks a controlled scheduler could not
// interleave threads between them.
//
// On ordinary platforms (native, sim, vthreads) none of the hook statics
// exist and every call compiles to nothing - the `if constexpr (requires
// ...)` test is resolved at template instantiation time, so native builds
// carry zero overhead, not even a branch. The check platform
// (include/relock/check/platform.hpp) defines the statics and turns each
// call into a scheduling point of the controlled scheduler.
#pragma once

#include <cstdint>

#include "relock/platform/lock_event.hpp"

namespace relock {

/// The checker consumes the shared lock-event vocabulary (the tracer is the
/// other consumer; see platform/lock_event.hpp). The historical name is
/// kept: "ChkEvent" at a call site signals the event feeds an oracle.
using ChkEvent = LockEvent;

/// True exactly on the check platform - the only platform defining the
/// hook statics. For the rare cases where instrumentation alone is not
/// enough and behavior must differ (e.g. destructors that would rethrow
/// the checker's schedule-abort exception mid-unwind).
template <typename P>
inline constexpr bool kCheckedPlatform =
    requires(typename P::Context& ctx) { P::chk_point(ctx, ""); };

/// A scheduling point: under the checker the calling model thread may be
/// preempted here. `tag` names the transition in failure traces.
template <typename P>
inline void chk_point(typename P::Context& ctx, const char* tag) {
  if constexpr (requires { P::chk_point(ctx, tag); }) {
    P::chk_point(ctx, tag);
  } else {
    (void)ctx;
    (void)tag;
  }
}

/// An oracle event (see ChkEvent). Not a scheduling point.
template <typename P>
inline void chk_event(typename P::Context& ctx, ChkEvent e,
                      std::uint64_t arg = 0) {
  if constexpr (requires { P::chk_event(ctx, e, arg); }) {
    P::chk_event(ctx, e, arg);
  } else {
    (void)ctx;
    (void)e;
    (void)arg;
  }
}

/// An attribute snapshot a thread read (spin, delay, sleep, timeout) - the
/// input of the checker's attribute-tuple oracle. Not a scheduling point.
template <typename P>
inline void chk_attrs(typename P::Context& ctx, std::uint64_t spin,
                      std::uint64_t delay, std::uint64_t sleep,
                      std::uint64_t timeout) {
  if constexpr (requires { P::chk_attrs(ctx, spin, delay, sleep, timeout); }) {
    P::chk_attrs(ctx, spin, delay, sleep, timeout);
  } else {
    (void)ctx;
    (void)spin;
    (void)delay;
    (void)sleep;
    (void)timeout;
  }
}

/// The release module's single-owner oracle. `open` marks the start of a
/// selection (ConfigurableLock::select_next), a session owned by the
/// calling thread; every module unlink (QueuedScheduler::take, which has
/// no Context in scope) must then come from the session owner. Two
/// releasers selecting from one module concurrently is exactly the race
/// the quiescence epoch and the grant-store ordering exist to prevent, and
/// the checker reports it as an oracle violation. Both calls are
/// scheduling points there; the check platform resolves the current model
/// thread through the engine, and other platforms compile this out.
template <typename P>
inline void chk_select(bool open) {
  if constexpr (requires { P::chk_select(open); }) {
    P::chk_select(open);
  } else {
    (void)open;
  }
}

}  // namespace relock
