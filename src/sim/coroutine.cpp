#include "relock/sim/coroutine.hpp"

#include <cassert>
#include <cstring>
#include <utility>

#if RELOCK_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace relock::sim {

#if RELOCK_TSAN_FIBERS
void Coroutine::enter_fiber() noexcept {
  if (fiber_ == nullptr) fiber_ = __tsan_create_fiber(0);
  caller_fiber_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(fiber_, 0);
}
void Coroutine::leave_fiber() noexcept {
  __tsan_switch_to_fiber(caller_fiber_, 0);
}
Coroutine::~Coroutine() {
  if (fiber_ != nullptr) __tsan_destroy_fiber(fiber_);
}
#else
// A coroutine abandoned mid-flight simply has its stack unmapped; entry
// functions in this codebase hold no resources across suspension points
// that the simulator does not also own.
Coroutine::~Coroutine() = default;
#endif

}  // namespace relock::sim

#if defined(__x86_64__)

extern "C" {
// Defined in context_switch_x86_64.S.
void relock_ctx_swap(void** save_sp, void* target_sp);
void relock_ctx_trampoline();
}

namespace relock::sim {

namespace {
// Fake initial frame layout, matching relock_ctx_swap's restore sequence
// (low address first): [fcw:2][pad:2][mxcsr:4] r15 r14 r13 r12 rbx rbp ret.
struct InitialFrame {
  std::uint16_t fcw;
  std::uint16_t pad;
  std::uint32_t mxcsr;
  void* r15;
  void* r14;
  void* r13;
  void* r12;  // entry argument -> rdi in trampoline
  void* rbx;  // entry function pointer, called by trampoline
  void* rbp;
  void* ret;  // relock_ctx_trampoline
};
static_assert(sizeof(InitialFrame) == 8 + 6 * 8 + 8);
}  // namespace

Coroutine::Coroutine(std::function<void()> entry, std::size_t stack_size)
    : entry_(std::move(entry)), stack_(stack_size) {
  auto* top = static_cast<char*>(stack_.top());
  auto* frame = reinterpret_cast<InitialFrame*>(top - sizeof(InitialFrame));
  std::memset(frame, 0, sizeof(InitialFrame));
  frame->fcw = 0x037F;    // default x87 control word
  frame->mxcsr = 0x1F80;  // default MXCSR (all exceptions masked)
  frame->r12 = this;
  frame->rbx = reinterpret_cast<void*>(&entry_thunk);
  frame->ret = reinterpret_cast<void*>(&relock_ctx_trampoline);
  coro_sp_ = frame;
}

void Coroutine::resume() {
  assert(!finished_ && "resume of finished coroutine");
  started_ = true;
  enter_fiber();
  relock_ctx_swap(&caller_sp_, coro_sp_);
}

void Coroutine::suspend() {
  leave_fiber();
  relock_ctx_swap(&coro_sp_, caller_sp_);
}

void Coroutine::entry_thunk(void* self) {
  static_cast<Coroutine*>(self)->run_entry();
}

void Coroutine::run_entry() {
  entry_();
  finished_ = true;
  // Final transfer back to the resumer; never returns.
  leave_fiber();
  relock_ctx_swap(&coro_sp_, caller_sp_);
  assert(false && "finished coroutine was resumed");
  __builtin_unreachable();
}

}  // namespace relock::sim

#else  // ucontext fallback for non-x86-64 hosts

namespace relock::sim {

Coroutine::Coroutine(std::function<void()> entry, std::size_t stack_size)
    : entry_(std::move(entry)), stack_(stack_size) {
  getcontext(&coro_ctx_);
  coro_ctx_.uc_stack.ss_sp =
      static_cast<char*>(stack_.top()) - stack_.usable_size();
  coro_ctx_.uc_stack.ss_size = stack_.usable_size();
  coro_ctx_.uc_link = nullptr;
  makecontext(&coro_ctx_,
              reinterpret_cast<void (*)()>(&Coroutine::entry_thunk), 1, this);
}

void Coroutine::resume() {
  assert(!finished_ && "resume of finished coroutine");
  started_ = true;
  enter_fiber();
  swapcontext(&caller_ctx_, &coro_ctx_);
}

void Coroutine::suspend() {
  leave_fiber();
  swapcontext(&coro_ctx_, &caller_ctx_);
}

void Coroutine::entry_thunk(void* self) {
  static_cast<Coroutine*>(self)->run_entry();
}

void Coroutine::run_entry() {
  entry_();
  finished_ = true;
  leave_fiber();
  swapcontext(&coro_ctx_, &caller_ctx_);
  assert(false && "finished coroutine was resumed");
  __builtin_unreachable();
}

}  // namespace relock::sim

#endif
