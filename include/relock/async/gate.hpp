// AsyncGate: the awaitable front-end's bridge into ConfigurableLock's
// private acquisition pipeline. A suspended coroutine cannot run the lock's
// waiting engine (there is no thread to spin or park), so the gate runs the
// pipeline's other stages - route, arrive, publish, resolve_timeout - on
// behalf of a WaiterRecord whose grant is delivered through
// WaiterRecord::grant_hook instead of a polled flag. It implements none of
// those protocols itself.
//
// Contains no coroutine code itself (it is pure lock-protocol glue), but
// lives under relock/async/ and behind its gate because nothing else
// needs it.
#pragma once

#include "relock/async/config.hpp"

#if RELOCK_ASYNC_ENABLED

#include <atomic>

#include "relock/core/configurable_lock.hpp"
#include "relock/core/waiter.hpp"

namespace relock {

template <Platform P>
struct AsyncGate {
  static_assert(kRealConcurrency<P>,
                "the async front-end requires the lock-free arrival paths "
                "(kRealConcurrency platforms only)");

  using Lock = ConfigurableLock<P>;
  using Ctx = typename P::Context;
  /// Where an op's record was published: the publish stage's policy, which
  /// the timeout resolution needs back.
  using Publish = typename Lock::Publish;
  /// The conditional-waiter breaker a timed op holds while it waits.
  using Breaker = typename Lock::BreakerToken;

  [[nodiscard]] static typename P::Domain& domain(Lock& lk) noexcept {
    return lk.domain_;
  }
  [[nodiscard]] static Placement flag_placement(Lock& lk, Ctx& ctx) {
    return lk.grant_flag_placement(ctx);
  }

  /// Contended arrival for a coroutine op: the lock's route, arrive and
  /// publish stages, minus the waiting engine. Coroutines never barge (no
  /// thread runs the TTAS engine), so under kNone they ride the lock's
  /// cell and the release module's orphan FIFO hands off directly - the
  /// machinery that absorbs reconfigure-to-kNone races. Timed ops get the
  /// sync paths' deadline and breaker; a coroutine runs no Phi, so the
  /// lock's waiting attributes (and their timeout) do not apply.
  ///
  /// Returns true when entry was immediate (a reader-writer lock admitted
  /// the op under meta): nothing was published and the caller resumes the
  /// frame itself. Otherwise the record is reachable on return, and a
  /// concurrent release may grant it - and its hook resume the frame - at
  /// any moment, including from inside the publish stage's lost-release
  /// guard; callers must not touch the op afterwards unless they are the
  /// only party that ever resumes it (the manager executor is).
  template <typename Op>
  static bool enqueue(Ctx& ctx, Op& op) {
    Lock& lk = *op.lock;
    op.via = lk.route(ctx, op.shared, /*t0=*/0, /*barge_ok=*/false);
    if (op.via == Publish::kEntered) return true;
    op.deadline = lk.arrive(ctx, op.timeout, /*anchor=*/0, op.via, op.breaker);
    lk.publish(ctx, op.rec, op.via);
    return false;
  }

  /// Resolves a timed op whose timer fired (Lock::resolve_timeout): true
  /// when the record was withdrawn, false when a grant beat the withdrawal
  /// - its hook delivery may still be in flight on the granter (it fires
  /// after the fast release retires, outside the epoch, so an inline-
  /// resumed frame's unlock cannot deadlock against this meta-held drain)
  /// and arrives as an ordinary grant message for the caller to consume.
  template <typename Op>
  static bool resolve_timeout(Ctx& ctx, Op& op) {
    return op.lock->resolve_timeout(ctx, op.rec, op.via);
  }

  /// Post-grant bookkeeping, run on the resumed frame's context: the tail
  /// of the sync granted path. t0 is 0 - async waits carry no wait-time
  /// sample (the frame was not running to take one).
  static void complete(Ctx& ctx, Lock& lk, bool shared) {
    lk.waiter_count_.fetch_sub(1, std::memory_order_relaxed);
    lk.on_granted(ctx, shared, /*t0=*/0);
  }
};

}  // namespace relock

#endif  // RELOCK_ASYNC_ENABLED
