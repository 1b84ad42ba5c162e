// WaiterRecord: the per-acquisition registration record (paper section 3.2:
// "a requesting thread registers itself with the lock object"). Lives on the
// waiting thread's stack; published into the lock's WaitQueueCell (lock-
// free) or a scheduler module's queue (under the lock's meta guard).
#pragma once

#include <atomic>
#include <cstdint>

#include "relock/core/attributes.hpp"
#include "relock/platform/backoff.hpp"
#include "relock/platform/chk_hooks.hpp"
#include "relock/platform/platform.hpp"

namespace relock {

template <Platform P>
class Scheduler;

template <Platform P>
struct WaiterRecord {
  WaiterRecord(typename P::Domain& domain, ThreadId tid_, Priority priority_,
               Placement flag_placement, bool shared_, bool may_sleep_)
      : granted(domain, 0, flag_placement),
        tid(tid_),
        priority(priority_),
        shared(shared_),
        may_sleep(may_sleep_) {}
  WaiterRecord(const WaiterRecord&) = delete;
  WaiterRecord& operator=(const WaiterRecord&) = delete;

  /// Grant flag the waiter polls / sleeps on. With WaitPlacement::
  /// kWaiterLocal this sits in the waiter's node memory (the "distributed"
  /// configuration); otherwise on the lock's home node.
  typename P::Word granted;

  ThreadId tid;
  Priority priority;
  bool shared;     ///< reader (lock_shared) vs. writer acquisition
  bool may_sleep;  ///< waiting policy can sleep: granter must send a wakeup

  /// Set under the lock's meta guard when the waiter has been dequeued and
  /// granted; used to resolve the timeout-vs-grant race.
  bool granted_flag_host = false;

  Nanos enqueue_time = 0;

  /// Grant-delivery hook: the parker abstraction for waiters that are not
  /// threads. A thread waiter (hook == nullptr) polls/sleeps on `granted`;
  /// a coroutine waiter (relock/async/) instead registers a hook that the
  /// granter invokes AFTER publishing the grant flag and releasing the meta
  /// guard - the hook posts the suspended frame to its executor. Core stays
  /// coroutine-free: the hook is a plain function pointer + context arg.
  using GrantHook = void (*)(void* arg, typename P::Context& granter_ctx);
  GrantHook grant_hook = nullptr;
  void* grant_hook_arg = nullptr;
  /// Granter-owned link, meaningful only inside one release. A reader batch
  /// is chained through it from Scheduler::select to the grant loop (null
  /// for every other grantee); the grant loop reads it before the record's
  /// grant store and then reuses it to chain hooked records, whose hooks
  /// run after meta_unlock.
  WaiterRecord* batch_next = nullptr;

  /// The scheduler module this record was registered with (set under the
  /// lock's meta guard). Timeout withdrawal must remove the record from the
  /// module that actually holds it — the lock may have been reconfigured
  /// (and a different module made current) while the thread waited.
  /// nullptr while unregistered, when parked on the lock's orphan queue,
  /// and while linked in the lock's distributed-queue cell (which outlives
  /// every module swap, so a cell record belongs to no module).
  Scheduler<P>* registered_with = nullptr;

  /// Inline node for the lock's WaitQueueCell: the MCS-style successor
  /// link, written once by the *next* arrival after its tail-swap. nullptr
  /// means "no successor visible yet" — whether the record is last is
  /// decided by comparing against the cell's tail, so no pending sentinel
  /// is needed.
  std::atomic<WaiterRecord*> qnext{nullptr};

  // Intrusive doubly-linked queue node, guarded by the lock's meta word.
  WaiterRecord* prev = nullptr;
  WaiterRecord* next = nullptr;
  bool queued = false;
};

/// The distributed queue (SchedulerKind::kQueue), the MCS-style waiter
/// queue of the paper's Fig. 9: one tail word that arrivals swap themselves
/// into and one publication slot for the first-in-line record. Everything
/// else about the queue lives in the waiters' own records (WaiterRecord::
/// qnext), which is what makes the scheduler "distributed" - a waiting
/// thread spins only on its record-local grant flag, never on these words.
/// This struct holds the queue's only implementation: the lock, its
/// DistributedQueueScheduler façade, the simulator and relock-check all run
/// the operations below. On real-concurrency platforms the lock's cell is
/// also every queued kind's lock-free arrival channel: the release module
/// pops records out of it into whichever module is not the distributed
/// queue.
///
/// The cell deliberately uses host std::atomics, not platform Words: queue
/// maintenance is consumer-side bookkeeping serialized by the lock's grant
/// protocol (meta guard or quiescence epoch), and keeping it off the
/// platform word set leaves the simulator's timing/placement model - and
/// its calibrated tables - untouched. seq_cst on tail carries the lock's
/// lost-release Dekker: the producer's tail-swap and the releaser's
/// free-publish re-check (an RMW on tail) must not both miss each other.
///
/// Concurrency contract: any thread may push (exchange tail, then link via
/// the predecessor's qnext or `first` when the queue was empty); at most
/// ONE thread at a time consumes (pop/remove/push_front), serialized
/// externally. `head` is therefore a plain pointer owned by the consumer
/// side; visibility between successive consumers rides the same
/// happens-before edges that already order the lock's release protocol.
///
/// A consumer that sees a producer's tail-swap but not yet its link store
/// waits out that two-store window (await_link). Every operation takes
/// the caller's context as a nullable pointer. With one, the push's link
/// store is a relock-check scheduling point (qa.link / qa.first), each
/// wait opens with one (qc.first / qc.chase) and then probes with paced
/// spin_step, and the producer's very next platform access after linking
/// re-enables a gated spinner under the checker, so the waits are finite
/// there too. Without one (the context-free Scheduler interface) there are
/// no points and the waits are bare re-reads; they never iterate where
/// producers and the consumer are serialized by one guard, which is the
/// only way the façade may be driven.
template <Platform P>
struct WaitQueueCell {
  using Rec = WaiterRecord<P>;
  using Ctx = typename P::Context;

  std::atomic<Rec*> tail{nullptr};   ///< last arrival; nullptr = empty
  std::atomic<Rec*> first{nullptr};  ///< first arrival's publication slot
  Rec* head = nullptr;               ///< consumer-owned dequeue cursor

  /// Consumer-side emptiness. Exact for consumers: a record is reachable
  /// from head or (transitively) from the published tail, and the last
  /// consumer pop swings tail back to nullptr before clearing head.
  [[nodiscard]] bool empty() const noexcept {
    return head == nullptr && tail.load(std::memory_order_seq_cst) == nullptr;
  }

  /// Producer: swap `w` in as the tail, then publish the link - through
  /// the predecessor's node, or through `first` when the queue was empty.
  /// Safe against concurrent producers and the consumer; never waits. No
  /// scheduling point precedes the exchange, so an event the caller reports
  /// just before the call lands in the same checker step as the swap that
  /// fixes the record's queue position.
  void push(Ctx* ctx, Rec& w) {
    w.qnext.store(nullptr, std::memory_order_relaxed);
    Rec* const prev = tail.exchange(&w, std::memory_order_seq_cst);
    if (prev != nullptr) {
      point(ctx, "qa.link");
      prev->qnext.store(&w, std::memory_order_release);
    } else {
      point(ctx, "qa.first");
      first.store(&w, std::memory_order_release);
    }
  }

  /// Consumer: pops the queue head; returns nullptr only when the cell is
  /// empty.
  [[nodiscard]] Rec* pop(Ctx* ctx) {
    if (head == nullptr) {
      if (tail.load(std::memory_order_seq_cst) == nullptr) return nullptr;
      adopt_first(ctx);
    }
    Rec* const h = head;
    Rec* nxt = h->qnext.load(std::memory_order_acquire);
    if (nxt == nullptr) {
      // No visible successor: h may be the last node. Swing the tail back
      // to empty; losing the CAS means a producer swapped in behind h, so
      // adopt its link once it lands.
      Rec* expected = h;
      if (tail.compare_exchange_strong(expected, nullptr,
                                       std::memory_order_seq_cst)) {
        head = nullptr;
        return h;
      }
      nxt = await_link(ctx, h->qnext, "qc.chase");
    }
    head = nxt;
    h->qnext.store(nullptr, std::memory_order_relaxed);
    return h;
  }

  /// Consumer: unlinks `w` wherever it sits - MCS-with-timeout node
  /// self-removal. Returns false when the record is not in the cell.
  bool remove(Ctx* ctx, Rec& w) {
    if (head == nullptr) {
      if (tail.load(std::memory_order_seq_cst) == nullptr) return false;
      adopt_first(ctx);
    }
    Rec* prev = nullptr;
    Rec* cur = head;
    while (cur != &w) {
      Rec* nxt = cur->qnext.load(std::memory_order_acquire);
      if (nxt == nullptr) {
        if (tail.load(std::memory_order_seq_cst) == cur) return false;
        // A successor (possibly w) is mid-link behind cur: wait it out.
        nxt = await_link(ctx, cur->qnext, "qc.chase");
      }
      prev = cur;
      cur = nxt;
    }
    Rec* nxt = w.qnext.load(std::memory_order_acquire);
    if (nxt == nullptr) {
      // No visible successor: w may be the tail. Pre-clear the
      // predecessor's link BEFORE swinging the tail to it - the instant
      // the CAS lands, a new producer may store through prev->qnext, and a
      // late clear would erase that link.
      if (prev != nullptr) {
        prev->qnext.store(nullptr, std::memory_order_release);
      }
      Rec* expected = &w;
      if (tail.compare_exchange_strong(expected, prev,
                                       std::memory_order_seq_cst)) {
        if (prev == nullptr) head = nullptr;
        return true;
      }
      // Lost to a producer that swapped in behind w: adopt its link.
      nxt = await_link(ctx, w.qnext, "qc.chase");
    }
    if (prev != nullptr) {
      prev->qnext.store(nxt, std::memory_order_release);
    } else {
      head = nxt;
    }
    w.qnext.store(nullptr, std::memory_order_relaxed);
    return true;
  }

  /// Consumer: re-inserts `w` at the head - the reclaim of a fast-release
  /// pre-selection, which was the oldest candidate and goes back in front.
  void push_front(Ctx* ctx, Rec& w) {
    w.qnext.store(nullptr, std::memory_order_relaxed);
    if (head == nullptr) {
      Rec* expected = nullptr;
      if (tail.load(std::memory_order_seq_cst) == nullptr &&
          tail.compare_exchange_strong(expected, &w,
                                       std::memory_order_seq_cst)) {
        // Empty cell: w is first and last; producers link behind it.
        head = &w;
        return;
      }
      // A producer won the empty slot. w still goes first: adopt the
      // producer's publication as the queue behind w.
      adopt_first(ctx);
    }
    w.qnext.store(head, std::memory_order_release);
    head = &w;
  }

 private:
  static void point(Ctx* ctx, const char* tag) {
    if (ctx != nullptr) chk_point<P>(*ctx, tag);
  }

  /// The one link-window wait: returns `slot` once the producer that owes
  /// it a link has stored one.
  static Rec* await_link(Ctx* ctx, const std::atomic<Rec*>& slot,
                         const char* tag) {
    point(ctx, tag);
    Rec* r;
    for (std::uint32_t streak = 0;
         (r = slot.load(std::memory_order_acquire)) == nullptr;) {
      if (ctx != nullptr) spin_step<P>(*ctx, streak);
    }
    return r;
  }

  /// Adopts the current generation's published first arrival into the
  /// consumer cursor. Caller observed tail != nullptr with head == nullptr,
  /// so a producer is committed to publishing the slot.
  void adopt_first(Ctx* ctx) {
    head = await_link(ctx, first, "qc.first");
    first.store(nullptr, std::memory_order_relaxed);
  }
};

/// Intrusive FIFO of waiter records. All operations are serialized by the
/// owning lock (the meta guard, or release-module ownership).
template <Platform P>
class WaiterQueue {
 public:
  using Rec = WaiterRecord<P>;

  void push_back(Rec& r) noexcept {
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

  /// Re-inserts a record at the head. Used to return a pre-dequeued
  /// successor (the fast-release cache) to the queue without losing its
  /// FIFO position: the cached record was the oldest selection candidate.
  void push_front(Rec& r) noexcept {
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

  void remove(Rec& r) noexcept {
    if (!r.queued) return;
    if (r.prev != nullptr) r.prev->next = r.next; else head_ = r.next;
    if (r.next != nullptr) r.next->prev = r.prev; else tail_ = r.prev;
    r.prev = r.next = nullptr;
    r.queued = false;
  }

  [[nodiscard]] Rec* front() const noexcept { return head_; }
  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }

  /// Iterates in FIFO order; `fn` returning false stops the walk.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (Rec* r = head_; r != nullptr;) {
      Rec* next = r->next;  // fn may unlink r
      if (!fn(*r)) return;
      r = next;
    }
  }

 private:
  Rec* head_ = nullptr;
  Rec* tail_ = nullptr;
};

}  // namespace relock
