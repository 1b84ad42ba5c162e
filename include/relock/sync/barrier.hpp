// Sense-reversing centralized barrier with a configurable waiting policy:
// arrivals count up on a shared word; the last arriver flips the sense and
// (for sleeping policies) wakes everyone. Per-thread sense state makes the
// barrier safely reusable across generations. Waiters run the lock's
// waiting component Phi (core/wait.hpp) like its centralized waiters: probe
// the sense word, sleep on a sleeper list behind the meta guard
// (platform/meta_guard.hpp), and never park early.
#pragma once

#include <vector>

#include "relock/core/attributes.hpp"
#include "relock/core/usage_error.hpp"
#include "relock/core/wait.hpp"
#include "relock/platform/meta_guard.hpp"
#include "relock/platform/platform.hpp"

namespace relock {

template <Platform P>
class Barrier {
 public:
  using Ctx = typename P::Context;
  using Domain = typename P::Domain;

  /// `parties` threads must arrive to release a generation. `waiting`
  /// selects how non-last arrivers wait for the sense flip; it carries no
  /// timeout, because arrive_and_wait has no way to report one.
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
    if (waiting_.timeout_ns != 0) {
      throw LockUsageError("Barrier: the waiting policy cannot time out");
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
      // Last arriver: reset the counter, flip the sense, wake sleepers
      // (a pure-spin barrier has none and skips the guard).
      P::store(ctx, count_, 0);
      P::store(ctx, sense_, my_sense);
      if (waiting_.sleep_ns != 0) {
        grant_waiters<P>(ctx, meta_, sleepers_, kAllWaiters,
                         [](std::uint32_t) {});
      }
      return;
    }
    const auto flipped = [&] { return P::load(ctx, sense_) == my_sense; };
    (void)wait_rounds<P>(
        ctx, waiting_, kForever, /*park_early=*/false, flipped,
        [&](Nanos sleep_ns) {
          // The node lives on our stack: it is enqueued and - on every
          // wake path, including timer expiry - dequeued under meta, so
          // the releaser can never observe a dangling node.
          WaitNode node(ctx.self(), /*sleeps=*/true);
          meta_lock<P>(ctx, meta_);
          if (flipped()) {
            meta_unlock<P>(ctx, meta_);
            return WaitResult::kGranted;
          }
          sleepers_.push_back(node);
          meta_unlock<P>(ctx, meta_);
          (void)park<P>(ctx, sleep_ns, kForever, {});
          meta_lock<P>(ctx, meta_);
          sleepers_.remove(node);  // no-op if the releaser already took us
          meta_unlock<P>(ctx, meta_);
          return flipped() ? WaitResult::kGranted : WaitResult::kAgain;
        });
  }

  [[nodiscard]] std::uint32_t parties() const noexcept { return parties_; }

 private:
  const std::uint32_t parties_;
  typename P::Word count_;
  typename P::Word sense_;
  typename P::Word meta_;
  const LockAttributes waiting_;
  WaiterQueue<WaitNode> sleepers_;         ///< guarded by meta
  std::vector<std::uint8_t> local_sense_;  ///< slot i owned by thread i
};

}  // namespace relock
