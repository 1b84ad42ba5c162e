// Counting semaphore with a configurable waiting policy: like the
// configurable lock, waiters follow Table 1 attributes (spin / backoff /
// sleep / mixed / conditional) - the paper's attribute model applied to
// another synchronization primitive. It is built from the lock's own parts:
// the meta guard and waiter FIFO (platform/meta_guard.hpp) and the waiting
// component Phi (core/wait.hpp), run like the lock's queued wait.
#pragma once

#include <atomic>

#include "relock/core/attributes.hpp"
#include "relock/core/usage_error.hpp"
#include "relock/core/wait.hpp"
#include "relock/platform/meta_guard.hpp"
#include "relock/platform/platform.hpp"

namespace relock {

template <Platform P>
class Semaphore {
 public:
  using Ctx = typename P::Context;
  using Domain = typename P::Domain;

  explicit Semaphore(Domain& domain, std::uint32_t initial = 0,
                     Placement placement = Placement::any(),
                     LockAttributes waiting = LockAttributes::combined(100))
      : meta_(domain, 0, placement), count_(initial), waiting_(waiting) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  /// Decrements the count, waiting per the configured policy if it is zero.
  /// Returns false only when the policy carries a timeout that expired.
  bool acquire(Ctx& ctx) { return acquire_impl(ctx, 0); }

  /// Timed acquisition (overrides the timeout attribute for this call).
  bool acquire_for(Ctx& ctx, Nanos timeout) {
    if (timeout == 0) {
      throw LockUsageError("Semaphore::acquire_for: timeout must be > 0");
    }
    return acquire_impl(ctx, timeout);
  }

  /// Single attempt; never waits.
  bool try_acquire(Ctx& ctx) {
    meta_lock<P>(ctx, meta_);
    const bool took = take_locked();
    meta_unlock<P>(ctx, meta_);
    return took;
  }

  /// Increments the count by `n`, granting queued waiters directly.
  void release(Ctx& ctx, std::uint32_t n = 1) {
    grant_waiters<P>(ctx, meta_, waiters_, n, [&](std::uint32_t left) {
      count_.store(count_.load(std::memory_order_relaxed) + left,
                   std::memory_order_relaxed);
    });
  }

  /// Approximate current count (diagnostics).
  [[nodiscard]] std::uint32_t count_hint() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  /// Meta held: consumes a permit if one is available.
  bool take_locked() {
    const std::uint32_t c = count_.load(std::memory_order_relaxed);
    if (c > 0) count_.store(c - 1, std::memory_order_relaxed);
    return c > 0;
  }

  bool acquire_impl(Ctx& ctx, Nanos timeout_override) {
    LockAttributes attrs = waiting_;
    if (timeout_override != 0) attrs.timeout_ns = timeout_override;
    const Nanos deadline =
        attrs.timeout_ns != 0 ? P::now(ctx) + attrs.timeout_ns : kForever;

    meta_lock<P>(ctx, meta_);
    if (take_locked()) {
      meta_unlock<P>(ctx, meta_);
      return true;
    }
    // Latched sleepable, as the lock's queued waiters are: with more live
    // threads than processors even a spin-policy waiter may park early, so
    // its grant must wake it.
    WaitNode node(ctx.self(), attrs.sleep_ns > 0 || oversubscribed<P>(ctx));
    waiters_.push_back(node);
    meta_unlock<P>(ctx, meta_);

    if (wait_queued<P>(ctx, attrs, deadline, node.may_sleep,
                       [&] { return node.is_granted(); }) ==
        WaitResult::kGranted) {
      return true;
    }
    // Timeout: withdraw unless a release granted us concurrently.
    meta_lock<P>(ctx, meta_);
    const bool granted = node.is_granted();
    if (!granted) waiters_.remove(node);
    meta_unlock<P>(ctx, meta_);
    return granted;
  }

  typename P::Word meta_;
  std::atomic<std::uint32_t> count_;  ///< mutated under meta; hint reads race
  const LockAttributes waiting_;
  WaiterQueue<WaitNode> waiters_;     ///< guarded by meta
};

}  // namespace relock
