// The meta guard and the waiter list it guards. A lock object or primitive
// keeps a TAS meta word ("a primitive low-level lock ... to enforce mutual
// exclusion of a high-level lock data structure") and an intrusive FIFO of
// waiters behind it. This header holds the one guard loop and the one FIFO;
// ConfigurableLock, its scheduler modules, BlockingLock, Semaphore, Barrier,
// ConditionVariable and AsyncSemaphore all build on them. It lives under
// platform/ so locks/ can use it as well as core/ and above.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "relock/platform/backoff.hpp"
#include "relock/platform/platform.hpp"

namespace relock {

// Real-concurrency escalation of the guard (unused on the simulator).
/// Failed probes spent on PAUSE before the busy-delay phase.
inline constexpr std::uint32_t kMetaPureSpins = 4;
/// Bounded-exponential busy delays before the guard yields instead.
inline constexpr std::uint32_t kMetaBackoffRounds = 8;
inline constexpr Nanos kMetaBackoffInitialNs = 64;
inline constexpr Nanos kMetaBackoffCapNs = 4096;

/// Acquires the meta guard `meta`. TTAS: probe with cheap reads, RMW only
/// when the guard looks free - spinning with RMWs would serialize on the
/// (expensive) atomic path of the word's home memory module.
///
/// On real-concurrency platforms failed probes escalate: a few PAUSEs,
/// then bounded exponential busy-delays (so colliding threads de-phase
/// instead of hammering the guard line), then yields (so an oversubscribed
/// processor reaches the guard holder at all). The simulator keeps the
/// seed's pure TTAS loop: its pauses are costed events and the calibrated
/// tables depend on the exact access sequence.
template <Platform P>
void meta_lock(typename P::Context& ctx, typename P::Word& meta) {
  BackoffSchedule backoff(BackoffSchedule::Params{kMetaBackoffInitialNs,
                                                  kMetaBackoffCapNs, 2});
  for (std::uint32_t failed = 0;; ++failed) {
    if (P::load_relaxed(ctx, meta) == 0 && P::fetch_or(ctx, meta, 1) == 0) {
      return;
    }
    if (!kRealConcurrency<P> || failed < kMetaPureSpins) {
      P::pause(ctx);
    } else if (failed < kMetaPureSpins + kMetaBackoffRounds) {
      P::delay(ctx, backoff.next());
    } else {
      P::yield(ctx);
    }
  }
}

template <Platform P>
void meta_unlock(typename P::Context& ctx, typename P::Word& meta) {
  P::store(ctx, meta, 0);
}

/// Intrusive FIFO of waiter nodes living on their waiters' stacks (or in
/// their coroutine frames). `Node` carries `prev`, `next` and `queued`.
/// Every operation is serialized by the owner: its meta guard, or release-
/// module ownership in the configurable lock.
template <typename Node>
class WaiterQueue {
 public:
  void push_back(Node& r) noexcept {
    r.prev = tail_;
    r.next = nullptr;
    r.queued = true;
    if (tail_ != nullptr) {
      tail_->next = &r;
    } else {
      head_ = &r;
    }
    tail_ = &r;
  }

  /// Re-inserts a node at the head. Used to return a pre-dequeued
  /// successor (the fast-release cache) to the queue without losing its
  /// FIFO position: the cached record was the oldest selection candidate.
  void push_front(Node& r) noexcept {
    r.prev = nullptr;
    r.next = head_;
    r.queued = true;
    if (head_ != nullptr) {
      head_->prev = &r;
    } else {
      tail_ = &r;
    }
    head_ = &r;
  }

  /// Unlinks `r`; a no-op when it is not queued (a granter took it).
  void remove(Node& r) noexcept {
    if (!r.queued) return;
    if (r.prev != nullptr) r.prev->next = r.next; else head_ = r.next;
    if (r.next != nullptr) r.next->prev = r.prev; else tail_ = r.prev;
    r.prev = r.next = nullptr;
    r.queued = false;
  }

  /// Unlinks and returns the head; nullptr when empty.
  Node* pop_front() noexcept {
    Node* const r = head_;
    if (r != nullptr) remove(*r);
    return r;
  }

  [[nodiscard]] Node* front() const noexcept { return head_; }
  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }

  /// Iterates in FIFO order; `fn` returning false stops the walk.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (Node* r = head_; r != nullptr;) {
      Node* next = r->next;  // fn may unlink r
      if (!fn(*r)) return;
      r = next;
    }
  }

 private:
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
};

/// A thread's node on a primitive's waiter list. The granter sets
/// `granted` under the meta guard; after that store the node may vanish,
/// so it wakes the waiter by the captured `tid` alone.
struct WaitNode {
  WaitNode(ThreadId t, bool sleeps) : tid(t), may_sleep(sleeps) {}
  WaitNode(const WaitNode&) = delete;
  WaitNode& operator=(const WaitNode&) = delete;

  [[nodiscard]] bool is_granted() const noexcept {
    return granted.load(std::memory_order_acquire) != 0;
  }

  ThreadId tid;
  bool may_sleep;  ///< the waiter may park: the granter must wake it
  std::atomic<std::uint32_t> granted{0};
  WaitNode* prev = nullptr;
  WaitNode* next = nullptr;
  bool queued = false;
};

/// grant_waiters count that grants every queued waiter.
inline constexpr std::uint32_t kAllWaiters = ~std::uint32_t{0};

/// Grants up to `n` waiters of `list` in FIFO order: each is unlinked and
/// its flag set under the guard, and the sleepable ones are woken after
/// the guard drops (re-taking it after every full wake batch). When the
/// list runs dry with grants left over, `on_empty(left)` runs under the
/// guard. With n == 1 this is exactly meta, unlink and flag (or on_empty),
/// unmeta, wake - the access sequence of the paper's blocking lock.
template <Platform P, typename OnEmpty>
void grant_waiters(typename P::Context& ctx, typename P::Word& meta,
                   WaiterQueue<WaitNode>& list, std::uint32_t n,
                   OnEmpty on_empty) {
  constexpr std::size_t kWakeBatch = 16;
  ThreadId wake[kWakeBatch];
  while (n > 0) {
    std::size_t to_wake = 0;
    meta_lock<P>(ctx, meta);
    while (n > 0 && to_wake < kWakeBatch) {
      WaitNode* const node = list.pop_front();
      if (node == nullptr) {
        on_empty(n);
        n = 0;
        break;
      }
      const ThreadId tid = node->tid;
      const bool sleeper = node->may_sleep;
      node->granted.store(1, std::memory_order_release);
      --n;
      if (sleeper) wake[to_wake++] = tid;
    }
    meta_unlock<P>(ctx, meta);
    for (std::size_t i = 0; i < to_wake; ++i) P::unblock(ctx, wake[i]);
  }
}

}  // namespace relock
