// Blocking lock: waiters are descheduled (parked) instead of spinning.
//
// This is the paper's "blocking-lock" row (Tables 2-4) and the blocking
// baseline of every figure. Lock handoff is *direct*: the releaser selects
// the FIFO head, marks it granted and wakes it without ever publishing the
// lock as free, so there is no barging and wakeup order equals registration
// order.
#pragma once

#include "relock/platform/meta_guard.hpp"
#include "relock/platform/platform.hpp"

namespace relock {

template <Platform P>
class BlockingLock {
 public:
  using Ctx = typename P::Context;

  explicit BlockingLock(typename P::Domain& domain,
                        Placement placement = Placement::any())
      : meta_(domain, 0, placement), locked_(domain, 0, placement) {}
  BlockingLock(const BlockingLock&) = delete;
  BlockingLock& operator=(const BlockingLock&) = delete;

  void lock(Ctx& ctx) {
    meta_lock<P>(ctx, meta_);
    if (P::load(ctx, locked_) == 0) {
      P::store(ctx, locked_, 1);
      meta_unlock<P>(ctx, meta_);
      return;
    }
    // The queue is host bookkeeping; its simulated cost is the meta-word
    // critical section plus the modelled block/wakeup costs.
    WaitNode node(ctx.self(), /*sleeps=*/true);
    waiters_.push_back(node);
    meta_unlock<P>(ctx, meta_);
    while (!node.is_granted()) P::block(ctx);
  }

  bool try_lock(Ctx& ctx) {
    meta_lock<P>(ctx, meta_);
    const bool free = P::load(ctx, locked_) == 0;
    if (free) P::store(ctx, locked_, 1);
    meta_unlock<P>(ctx, meta_);
    return free;
  }

  /// Grants the FIFO head directly, or frees the lock when nobody waits.
  void unlock(Ctx& ctx) {
    grant_waiters<P>(ctx, meta_, waiters_, 1,
                     [&](std::uint32_t) { P::store(ctx, locked_, 0); });
  }

 private:
  typename P::Word meta_;    ///< TAS guard for the wait queue + locked_
  typename P::Word locked_;  ///< 1 while some thread owns the lock
  WaiterQueue<WaitNode> waiters_;  ///< guarded by meta_
};

}  // namespace relock
