// Condition variable over any platform lock (Mesa semantics). Works with
// every lock in this library that exposes lock(ctx)/unlock(ctx), on every
// Platform - native threads, the simulator, and vthreads.
//
// This is the kind of higher-level primitive the paper expects applications
// to assemble from the configurable kernel mechanisms ("the construction of
// new primitives on top of the existing ones"): the lock's meta guard and
// waiter FIFO (platform/meta_guard.hpp) and its waiting component Phi
// (core/wait.hpp) with the blocking tuple.
#pragma once

#include "relock/core/usage_error.hpp"
#include "relock/core/wait.hpp"
#include "relock/platform/meta_guard.hpp"
#include "relock/platform/platform.hpp"

namespace relock {

template <Platform P>
class ConditionVariable {
 public:
  using Ctx = typename P::Context;
  using Domain = typename P::Domain;

  explicit ConditionVariable(Domain& domain,
                             Placement placement = Placement::any())
      : meta_(domain, 0, placement) {}
  ConditionVariable(const ConditionVariable&) = delete;
  ConditionVariable& operator=(const ConditionVariable&) = delete;

  /// Atomically releases `lock` and waits for a notification, then
  /// re-acquires `lock`. Mesa semantics: re-check your predicate.
  template <typename L>
  void wait(Ctx& ctx, L& lock) {
    (void)wait_until(ctx, lock, kForever);
  }

  /// Waits until `pred()` holds (predicate checked under the lock).
  template <typename L, typename Pred>
  void wait(Ctx& ctx, L& lock, Pred pred) {
    while (!pred()) {
      wait(ctx, lock);
    }
  }

  /// Timed wait; returns false if `timeout` elapsed without a notification.
  /// The lock is re-acquired either way.
  template <typename L>
  bool wait_for(Ctx& ctx, L& lock, Nanos timeout) {
    if (timeout == 0) {
      throw LockUsageError("ConditionVariable::wait_for: timeout must be > 0");
    }
    // Anchor the deadline at entry: the unlock below can run a full release
    // module (direct handoff, sleeper wakes), and anchoring after it would
    // silently extend the caller's timeout by that much.
    return wait_until(ctx, lock, P::now(ctx) + timeout);
  }

  /// Wakes one waiter (FIFO).
  void notify_one(Ctx& ctx) { notify(ctx, 1); }

  /// Wakes every waiter.
  void notify_all(Ctx& ctx) { notify(ctx, kAllWaiters); }

 private:
  template <typename L>
  bool wait_until(Ctx& ctx, L& lock, Nanos deadline) {
    WaitNode node(ctx.self(), /*sleeps=*/true);
    meta_lock<P>(ctx, meta_);
    waiters_.push_back(node);
    meta_unlock<P>(ctx, meta_);
    lock.unlock(ctx);
    bool signaled =
        wait_queued<P>(ctx, LockAttributes::blocking(), deadline,
                       /*park_early=*/false,
                       [&] { return node.is_granted(); }) ==
        WaitResult::kGranted;
    if (!signaled) {
      // Timeout: withdraw - unless a notifier picked us in the meantime
      // (it marks the node granted under meta before waking).
      meta_lock<P>(ctx, meta_);
      signaled = node.is_granted();
      if (!signaled) waiters_.remove(node);
      meta_unlock<P>(ctx, meta_);
    }
    lock.lock(ctx);
    return signaled;
  }

  void notify(Ctx& ctx, std::uint32_t n) {
    grant_waiters<P>(ctx, meta_, waiters_, n, [](std::uint32_t) {});
  }

  typename P::Word meta_;
  WaiterQueue<WaitNode> waiters_;  ///< guarded by meta
};

}  // namespace relock
