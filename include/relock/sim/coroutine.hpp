// Symmetric coroutines for the simulator: the driver (host) context swaps
// into simulated-thread contexts and back. On x86-64 the switch is a
// hand-rolled callee-saved-register swap (src/sim/context_switch_x86_64.S);
// other architectures fall back to <ucontext.h>.
#pragma once

#include <cstdint>
#include <functional>

#include "relock/sim/stack.hpp"

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

// ThreadSanitizer builds annotate every context switch as a fiber switch:
// TSan tracks one shadow stack and one happens-before clock per thread, and
// an unannotated stack swap corrupts both.
#if defined(__SANITIZE_THREAD__)
#define RELOCK_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RELOCK_TSAN_FIBERS 1
#endif
#endif
#ifndef RELOCK_TSAN_FIBERS
#define RELOCK_TSAN_FIBERS 0
#endif

namespace relock::sim {

/// A one-shot coroutine. `resume()` transfers control into the coroutine
/// until it calls `suspend()` or its entry function returns; both transfer
/// control back to the resumer.
class Coroutine {
 public:
  /// `entry` runs on the coroutine's own stack on first resume. When it
  /// returns, the coroutine is `finished()` and control returns to the
  /// resumer.
  explicit Coroutine(std::function<void()> entry,
                     std::size_t stack_size = Stack::kDefaultSize);
  ~Coroutine();
  Coroutine(const Coroutine&) = delete;
  Coroutine& operator=(const Coroutine&) = delete;

  /// Transfers control into the coroutine. Must be called from outside it.
  /// Precondition: !finished().
  void resume();

  /// Transfers control back to the last resumer. Must be called from inside
  /// the coroutine.
  void suspend();

  [[nodiscard]] bool finished() const noexcept { return finished_; }

 private:
  static void entry_thunk(void* self);
  [[noreturn]] void run_entry();
  /// Fiber bookkeeping before each switch into / out of the coroutine.
#if RELOCK_TSAN_FIBERS
  void enter_fiber() noexcept;
  void leave_fiber() noexcept;
#else
  void enter_fiber() noexcept {}
  void leave_fiber() noexcept {}
#endif

  std::function<void()> entry_;
  Stack stack_;
  bool finished_ = false;
  bool started_ = false;

#if defined(__x86_64__)
  void* coro_sp_ = nullptr;    ///< coroutine's saved stack pointer
  void* caller_sp_ = nullptr;  ///< resumer's saved stack pointer
#else
  ucontext_t coro_ctx_{};
  ucontext_t caller_ctx_{};
#endif
#if RELOCK_TSAN_FIBERS
  void* fiber_ = nullptr;         ///< TSan fiber of the coroutine
  void* caller_fiber_ = nullptr;  ///< TSan fiber of the last resumer
#endif
};

}  // namespace relock::sim
