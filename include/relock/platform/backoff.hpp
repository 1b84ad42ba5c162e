// Exponential backoff in the style of Anderson et al. [ALL89]: the delay
// between successive probes of a busy lock grows geometrically (like the
// Ethernet collision backoff the paper cites) up to a cap. Also the polite
// failed-probe step (spin_step), shared by the spin phase of the waiting
// component Phi (core/wait.hpp: the lock, Semaphore and Barrier), the
// distributed queue's link-window waits, the lock's attribute-slot reads
// and the active lock's stopping manager.
#pragma once

#include <cstdint>

#include "relock/platform/platform.hpp"
#include "relock/platform/types.hpp"

namespace relock {

/// Pure backoff schedule: computes the next delay; the caller decides how to
/// realize the delay (native busy-wait, simulator virtual delay, ...).
/// Keeping the schedule separate from the delay mechanism lets the same
/// schedule drive every Platform.
class BackoffSchedule {
 public:
  struct Params {
    Nanos initial = 128;      ///< first delay
    Nanos cap = 64 * 1024;    ///< maximum delay
    std::uint32_t factor = 2; ///< geometric growth factor
  };

  BackoffSchedule() = default;
  explicit constexpr BackoffSchedule(Params p) noexcept
      : params_(p), current_(p.initial) {}

  /// Returns the delay to apply now and advances the schedule.
  constexpr Nanos next() noexcept {
    const Nanos d = current_;
    const Nanos grown = current_ * params_.factor;
    current_ = grown > params_.cap ? params_.cap : grown;
    return d;
  }

  constexpr void reset() noexcept { current_ = params_.initial; }

  [[nodiscard]] constexpr Nanos current() const noexcept { return current_; }

 private:
  Params params_{};
  Nanos current_ = Params{}.initial;
};

/// More live threads than processors. Platforms without real concurrency
/// model no oversubscription, so this is false there.
template <Platform P>
bool oversubscribed(typename P::Context& ctx) {
  if constexpr (kRealConcurrency<P>) {
    return P::oversubscribed(ctx);
  } else {
    (void)ctx;
    return false;
  }
}

/// Failed probes a waiter tolerates (grant-flag spins, link-window waits)
/// before escalating from PAUSE to yielding the processor; real-concurrency
/// platforms only.
inline constexpr std::uint32_t kSpinsBeforeYield = 64;
/// Same, when live threads exceed processors (spinning mostly steals the
/// quantum the releaser needs).
inline constexpr std::uint32_t kSpinsBeforeYieldOversubscribed = 4;

/// One polite failed-probe step. On real-concurrency platforms a long
/// streak escalates from PAUSE to yielding the processor: with more
/// waiters than processors, burning the quantum on PAUSE delays the very
/// thread that must release or hand off the lock (the all-spin FCFS cells
/// of bench/native_throughput.cpp collapse by ~100x without this), and an
/// oversubscribed domain gives way much sooner. The simulator's pause is a
/// costed event and keeps the seed behaviour. Under relock-check both
/// pause and yield are gated scheduling points, so a wait built on this
/// step stays finite there.
template <Platform P>
void spin_step(typename P::Context& ctx, std::uint32_t& streak) {
  if constexpr (kRealConcurrency<P>) {
    if (++streak >= (P::oversubscribed(ctx) ? kSpinsBeforeYieldOversubscribed
                                             : kSpinsBeforeYield)) {
      P::yield(ctx);
      return;
    }
  }
  P::pause(ctx);
}

}  // namespace relock
