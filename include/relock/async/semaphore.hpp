// AsyncSemaphore: an awaitable counting semaphore - the async counterpart
// of relock/sync/semaphore.hpp. acquire_async suspends the coroutine when
// the count is zero; release grants queued frames FIFO and resumes them
// inline on the releasing thread (or through an Executor when one is
// bound), mirroring the sync semaphore's direct-grant release. The count
// and the frame FIFO sit behind the lock's meta guard and waiter queue
// (platform/meta_guard.hpp).
#pragma once

#include "relock/async/config.hpp"

#if RELOCK_ASYNC_ENABLED

#include <coroutine>
#include <cstdint>

#include "relock/core/attributes.hpp"
#include "relock/core/usage_error.hpp"
#include "relock/platform/chk_hooks.hpp"
#include "relock/platform/meta_guard.hpp"
#include "relock/platform/platform.hpp"

namespace relock::async {

template <Platform P>
class AsyncSemaphore {
 public:
  using Ctx = typename P::Context;
  using Domain = typename P::Domain;

  explicit AsyncSemaphore(Domain& domain, std::uint32_t initial = 0,
                          Placement placement = Placement::any())
      : meta_(domain, 0, placement), count_(initial) {}
  AsyncSemaphore(const AsyncSemaphore&) = delete;
  AsyncSemaphore& operator=(const AsyncSemaphore&) = delete;

  class [[nodiscard]] Awaiter {
   public:
    Awaiter(AsyncSemaphore& sem, Ctx& launch) : sem_(sem), launch_(launch) {}
    Awaiter(const Awaiter&) = delete;
    Awaiter& operator=(const Awaiter&) = delete;

    bool await_ready() {
      if (!sem_.try_acquire(launch_)) return false;
      // Permit in hand with no suspension: the frame stays on the
      // launching context, and await_resume reads it from the node.
      node_.resume_ctx = &launch_;
      return true;
    }
    bool await_suspend(std::coroutine_handle<> h) {
      node_.handle = h;
      chk_point<P>(launch_, "co.suspend");
      meta_lock<P>(launch_, sem_.meta_);
      // Re-check under meta: a release may have landed since await_ready.
      const bool took = sem_.take_locked();
      if (!took) sem_.waiters_.push_back(node_);
      meta_unlock<P>(launch_, sem_.meta_);
      if (took) {
        node_.resume_ctx = &launch_;
        return false;  // resume immediately, permit in hand
      }
      // The frame may resume - and this awaiter die - on the releasing
      // thread the instant meta is dropped; touch nothing after this.
      return true;
    }
    /// Returns the context the frame resumed on.
    Ctx& await_resume() { return *node_.resume_ctx; }

   private:
    friend class AsyncSemaphore;
    struct Node {
      std::coroutine_handle<> handle{};
      Ctx* resume_ctx = nullptr;
      Node* prev = nullptr;
      Node* next = nullptr;
      bool queued = false;
    };
    AsyncSemaphore& sem_;
    Ctx& launch_;
    Node node_;
  };

  /// `Ctx& rctx = co_await sem.acquire_async(ctx);` - rctx is where the
  /// frame runs afterwards (the releaser's context when the wait was real).
  [[nodiscard]] Awaiter acquire_async(Ctx& ctx) { return Awaiter(*this, ctx); }

  bool try_acquire(Ctx& ctx) {
    meta_lock<P>(ctx, meta_);
    const bool took = take_locked();
    meta_unlock<P>(ctx, meta_);
    return took;
  }

  /// Releases `n` permits, resuming queued frames FIFO on this thread.
  void release(Ctx& ctx, std::uint32_t n = 1) {
    if (n == 0) {
      throw LockUsageError("AsyncSemaphore::release: n must be > 0");
    }
    while (n > 0) {
      meta_lock<P>(ctx, meta_);
      typename Awaiter::Node* const node = waiters_.pop_front();
      if (node == nullptr) count_ += n;
      meta_unlock<P>(ctx, meta_);
      if (node == nullptr) return;
      --n;
      // Grant by resumption: the frame owns its node, so this is the last
      // touch. The resumed frame may release in turn - bounded recursion
      // is the cost of the inline handoff, as with InlineExecutor.
      node->resume_ctx = &ctx;
      chk_point<P>(ctx, "co.resume");
      node->handle.resume();
    }
  }

  [[nodiscard]] std::uint32_t count_hint(Ctx& ctx) {
    meta_lock<P>(ctx, meta_);
    const std::uint32_t c = count_;
    meta_unlock<P>(ctx, meta_);
    return c;
  }

 private:
  friend class Awaiter;

  /// Meta held: consumes a permit if one is available.
  bool take_locked() {
    if (count_ == 0) return false;
    --count_;
    return true;
  }

  typename P::Word meta_;
  std::uint32_t count_;  ///< guarded by meta
  WaiterQueue<typename Awaiter::Node> waiters_;  ///< guarded by meta
};

}  // namespace relock::async

#endif  // RELOCK_ASYNC_ENABLED
