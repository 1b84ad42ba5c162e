// Sense-reversing centralized barrier with a configurable waiting policy:
// arrivals count up on a shared word; the last arriver flips the sense and
// (for sleeping policies) wakes everyone. Per-thread sense state makes the
// barrier safely reusable across generations.
#pragma once

#include <atomic>
#include <vector>

#include "relock/core/attributes.hpp"
#include "relock/core/usage_error.hpp"
#include "relock/platform/platform.hpp"

namespace relock {

template <Platform P>
class Barrier {
 public:
  using Ctx = typename P::Context;
  using Domain = typename P::Domain;

  /// `parties` threads must arrive to release a generation. `waiting`
  /// selects how non-last arrivers wait for the sense flip.
  explicit Barrier(Domain& domain, std::uint32_t parties,
                   Placement placement = Placement::any(),
                   LockAttributes waiting = LockAttributes::spin(),
                   std::uint32_t max_threads = 1024)
      : parties_(parties),
        count_(domain, 0, placement),
        sense_(domain, 0, placement),
        meta_(domain, 0, placement),
        waiting_(waiting),
        local_sense_(max_threads, 0) {
    if (parties_ == 0) {
      throw LockUsageError("Barrier: parties must be > 0");
    }
  }
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Arrives at the barrier and waits for the rest of the generation.
  void arrive_and_wait(Ctx& ctx) {
    const ThreadId tid = ctx.self();
    if (tid >= local_sense_.size()) {
      // Guard before any state moves: with NDEBUG the old assert compiled
      // away and the sense write below became an out-of-bounds store.
      throw LockUsageError("Barrier: thread id exceeds max_threads");
    }
    const std::uint64_t my_sense = local_sense_[tid] ^ 1u;
    local_sense_[tid] = static_cast<std::uint8_t>(my_sense);

    const std::uint64_t arrived = P::fetch_add(ctx, count_, 1) + 1;
    if (arrived == parties_) {
      // Last arriver: reset the counter, flip the sense, wake sleepers.
      P::store(ctx, count_, 0);
      P::store(ctx, sense_, my_sense);
      wake_sleepers(ctx);
      return;
    }
    wait_for_sense(ctx, my_sense);
  }

  [[nodiscard]] std::uint32_t parties() const noexcept { return parties_; }

 private:
  struct Sleeper {
    explicit Sleeper(ThreadId t) : tid(t) {}
    ThreadId tid;
    Sleeper* prev = nullptr;
    Sleeper* next = nullptr;
    bool queued = false;
  };

  void wait_for_sense(Ctx& ctx, std::uint64_t my_sense) {
    const LockAttributes attrs = waiting_;
    // A round with neither phase still probes once: the degenerate
    // (0,_,0,_) tuple must observe the sense flip.
    const std::uint32_t probes =
        attrs.spin_count == 0 && attrs.sleep_ns == 0 ? 1 : attrs.spin_count;
    for (;;) {
      // Spin phase.
      for (std::uint32_t i = 0; i < probes;) {
        if (P::load(ctx, sense_) == my_sense) return;
        P::pause(ctx);
        if (probes != kInfiniteSpins) ++i;
      }
      if (attrs.sleep_ns == 0) continue;
      // Sleep phase. The node lives on our stack: it is enqueued and - on
      // every wake path, including timer expiry - dequeued under meta, so
      // the releaser can never observe a dangling node.
      Sleeper node(ctx.self());
      meta_lock(ctx);
      if (P::load(ctx, sense_) == my_sense) {
        meta_unlock(ctx);
        return;
      }
      enqueue_locked(node);
      meta_unlock(ctx);
      if (attrs.sleep_ns == kForever) {
        P::block(ctx);
      } else {
        (void)P::block_for(ctx, attrs.sleep_ns);
      }
      meta_lock(ctx);
      remove_locked(node);  // no-op if the releaser already unlinked us
      meta_unlock(ctx);
      if (P::load(ctx, sense_) == my_sense) return;
    }
  }

  void wake_sleepers(Ctx& ctx) {
    if (waiting_.sleep_ns == 0) return;  // pure-spin barrier: nobody sleeps
    ThreadId tids[kMaxBatch];
    for (;;) {
      std::size_t n = 0;
      meta_lock(ctx);
      while (head_ != nullptr && n < kMaxBatch) {
        Sleeper* s = head_;
        remove_locked(*s);
        tids[n++] = s->tid;
      }
      meta_unlock(ctx);
      for (std::size_t i = 0; i < n; ++i) P::unblock(ctx, tids[i]);
      if (n < kMaxBatch) return;
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

  void enqueue_locked(Sleeper& node) {
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

  void remove_locked(Sleeper& node) {
    if (!node.queued) return;
    if (node.prev != nullptr) node.prev->next = node.next; else head_ = node.next;
    if (node.next != nullptr) node.next->prev = node.prev; else tail_ = node.prev;
    node.prev = node.next = nullptr;
    node.queued = false;
  }

  static constexpr std::size_t kMaxBatch = 32;

  const std::uint32_t parties_;
  typename P::Word count_;
  typename P::Word sense_;
  typename P::Word meta_;
  const LockAttributes waiting_;
  Sleeper* head_ = nullptr;  ///< guarded by meta
  Sleeper* tail_ = nullptr;  ///< guarded by meta
  std::vector<std::uint8_t> local_sense_;  ///< slot i owned by thread i
};

}  // namespace relock
