// Counting semaphore with a configurable waiting policy: like the
// configurable lock, waiters follow Table 1 attributes (spin / backoff /
// sleep / mixed / conditional) - the paper's attribute model applied to
// another synchronization primitive.
#pragma once

#include <atomic>

#include "relock/core/attributes.hpp"
#include "relock/core/usage_error.hpp"
#include "relock/platform/backoff.hpp"
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
    meta_lock(ctx);
    const std::uint32_t c = count_.load(std::memory_order_relaxed);
    if (c > 0) count_.store(c - 1, std::memory_order_relaxed);
    meta_unlock(ctx);
    return c > 0;
  }

  /// Increments the count by `n`, granting queued waiters directly.
  void release(Ctx& ctx, std::uint32_t n = 1) {
    ThreadId wake[kMaxBatch];
    while (n > 0) {
      std::size_t to_wake = 0;
      meta_lock(ctx);
      while (n > 0) {
        WaitNode* node = head_;
        if (node == nullptr) {
          count_.store(count_.load(std::memory_order_relaxed) + n,
                       std::memory_order_relaxed);
          n = 0;
          break;
        }
        remove_locked(*node);
        const ThreadId tid = node->tid;
        const bool sleeper = node->may_sleep;
        node->granted.store(1, std::memory_order_release);
        // The node may vanish now; only the captured tid is used below.
        --n;
        if (sleeper) {
          wake[to_wake++] = tid;
          if (to_wake == kMaxBatch) break;  // wake outside meta, re-enter
        }
      }
      meta_unlock(ctx);
      for (std::size_t i = 0; i < to_wake; ++i) P::unblock(ctx, wake[i]);
    }
  }

  /// Approximate current count (diagnostics).
  [[nodiscard]] std::uint32_t count_hint() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

 private:
  struct WaitNode {
    explicit WaitNode(ThreadId t, bool sleeps) : tid(t), may_sleep(sleeps) {}
    ThreadId tid;
    bool may_sleep;
    std::atomic<std::uint32_t> granted{0};
    WaitNode* prev = nullptr;
    WaitNode* next = nullptr;
    bool queued = false;
  };

  static constexpr std::size_t kMaxBatch = 16;

  bool acquire_impl(Ctx& ctx, Nanos timeout_override) {
    LockAttributes attrs = waiting_;
    if (timeout_override != 0) attrs.timeout_ns = timeout_override;
    const Nanos deadline =
        attrs.timeout_ns != 0 ? P::now(ctx) + attrs.timeout_ns : kForever;

    meta_lock(ctx);
    const std::uint32_t available = count_.load(std::memory_order_relaxed);
    if (available > 0) {
      count_.store(available - 1, std::memory_order_relaxed);
      meta_unlock(ctx);
      return true;
    }
    WaitNode node(ctx.self(), attrs.sleep_ns > 0);
    enqueue_locked(node);
    meta_unlock(ctx);

    if (wait_granted(ctx, node, attrs, deadline)) return true;

    // Timeout: withdraw unless a release granted us concurrently.
    meta_lock(ctx);
    if (node.granted.load(std::memory_order_relaxed) != 0) {
      meta_unlock(ctx);
      return true;
    }
    remove_locked(node);
    meta_unlock(ctx);
    return false;
  }

  /// The Table 1 waiting engine, probing the grant flag.
  bool wait_granted(Ctx& ctx, WaitNode& node, const LockAttributes& attrs,
                    Nanos deadline) {
    BackoffSchedule backoff(BackoffSchedule::Params{
        attrs.delay_ns != 0 ? attrs.delay_ns : 1,
        attrs.sleep_ns > 0 ? attrs.delay_ns : attrs.delay_ns * 16, 2});
    // A round with neither phase still probes once: the degenerate
    // (0,_,0,_) tuple must observe its grant and its deadline.
    const std::uint32_t probes =
        attrs.spin_count == 0 && attrs.sleep_ns == 0 ? 1 : attrs.spin_count;
    for (;;) {
      for (std::uint32_t i = 0; i < probes;) {
        if (node.granted.load(std::memory_order_acquire) != 0) return true;
        if (deadline != kForever && P::now(ctx) >= deadline) return false;
        if (attrs.delay_ns != 0) {
          P::delay(ctx, backoff.next());
        } else {
          P::pause(ctx);
        }
        if (probes != kInfiniteSpins) ++i;
      }
      if (attrs.sleep_ns == 0) continue;
      if (node.granted.load(std::memory_order_acquire) != 0) return true;
      if (attrs.sleep_ns == kForever && deadline == kForever) {
        P::block(ctx);
      } else {
        Nanos bound = attrs.sleep_ns;
        if (deadline != kForever) {
          const Nanos now = P::now(ctx);
          if (now >= deadline) return false;
          bound = std::min(bound, deadline - now);
        }
        (void)P::block_for(ctx, bound);
      }
      if (node.granted.load(std::memory_order_acquire) != 0) return true;
      if (deadline != kForever && P::now(ctx) >= deadline) return false;
    }
  }

  void meta_lock(Ctx& ctx) {
    for (;;) {
      if (P::load_relaxed(ctx, meta_) == 0 &&
          P::fetch_or(ctx, meta_, 1) == 0) {
        return;
      }
      P::pause(ctx);
    }
  }
  void meta_unlock(Ctx& ctx) { P::store(ctx, meta_, 0); }

  void enqueue_locked(WaitNode& node) {
    node.prev = tail_;
    node.next = nullptr;
    node.queued = true;
    if (tail_ != nullptr) {
      tail_->next = &node;
    } else {
      head_ = &node;
    }
    tail_ = &node;
  }

  void remove_locked(WaitNode& node) {
    if (!node.queued) return;
    if (node.prev != nullptr) node.prev->next = node.next; else head_ = node.next;
    if (node.next != nullptr) node.next->prev = node.prev; else tail_ = node.prev;
    node.prev = node.next = nullptr;
    node.queued = false;
  }

  typename P::Word meta_;
  std::atomic<std::uint32_t> count_;  ///< mutated under meta; hint reads race
  const LockAttributes waiting_;
  WaitNode* head_ = nullptr;        ///< guarded by meta
  WaitNode* tail_ = nullptr;        ///< guarded by meta
};

}  // namespace relock
