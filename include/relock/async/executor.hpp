// Executors: where a granted coroutine waiter resumes. The releasing
// thread publishes the grant exactly as it does for a thread waiter (one
// store to the record's grant flag); the record's grant hook then hands
// the suspended frame to an Executor, which decides the resumption site -
// inline on the granter, on a worker pool, or on an active-lock style
// manager thread (relock/async/manager.hpp).
#pragma once

#include "relock/async/config.hpp"

#if RELOCK_ASYNC_ENABLED

#include <condition_variable>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "relock/async/gate.hpp"
#include "relock/core/waiter.hpp"
#include "relock/platform/chk_hooks.hpp"

namespace relock::async {

template <Platform P>
class Executor;

/// One awaitable acquisition in flight. Lives inside the awaiter object,
/// which the coroutine frame keeps alive for the whole co_await - so the
/// WaiterRecord's storage outlives its registration exactly like a sync
/// waiter's stack frame does. Ownership rule: once the record is published
/// to the lock, the op belongs to whoever resumes the frame (the executor);
/// nobody else may touch it.
template <Platform P>
struct AsyncOp {
  using Ctx = typename P::Context;
  using Lock = ConfigurableLock<P>;

  AsyncOp(Lock& lk, Executor<P>& ex, Ctx& launch, bool shared_, Nanos timeout_)
      : lock(&lk),
        exec(&ex),
        launch_ctx(&launch),
        shared(shared_),
        timeout(timeout_),
        rec(AsyncGate<P>::domain(lk), launch.self(), launch.priority(),
            AsyncGate<P>::flag_placement(lk, launch), shared_,
            // Never sleepable: no thread parks on the grant flag, so a
            // granter wake would have nobody to hit. Delivery is the hook.
            /*may_sleep=*/false) {
    rec.grant_hook = &AsyncOp::deliver;
    rec.grant_hook_arg = this;
  }
  AsyncOp(const AsyncOp&) = delete;
  AsyncOp& operator=(const AsyncOp&) = delete;

  /// The WaiterRecord grant hook: the granter's last touch of the record.
  static void deliver(void* arg, Ctx& granter_ctx) {
    auto* op = static_cast<AsyncOp*>(arg);
    op->exec->post_grant(granter_ctx, *op);
  }

  Lock* lock;
  Executor<P>* exec;
  Ctx* launch_ctx;
  /// The context the frame runs on after resumption; set by the resuming
  /// executor immediately before handle.resume(). Op-embedded rather than
  /// thread-local so checker fibers and pool workers both work.
  Ctx* resume_ctx = nullptr;
  std::coroutine_handle<> handle{};
  bool shared;
  bool immediate = false;  ///< acquired without suspending (barge / RW entry)
  bool timed_out = false;  ///< timed wait lost; record already withdrawn
  Nanos timeout;           ///< 0 = untimed
  Nanos deadline = kForever;
  /// Where the record was published (set by AsyncGate::enqueue).
  typename AsyncGate<P>::Publish via = AsyncGate<P>::Publish::kCell;
  /// Armed while a timed op waits; disarmed before its frame resumes.
  typename AsyncGate<P>::Breaker breaker;
  WaiterRecord<P> rec;

  /// Manager-executor plumbing (unused by other executors): the MPSC
  /// inbox link, the message tag it carries, and the timer-list links.
  enum class Msg : std::uint8_t { kEnqueue, kGrant };
  Msg msg = Msg::kEnqueue;
  AsyncOp* post_next = nullptr;
  AsyncOp* timer_next = nullptr;
  AsyncOp* timer_prev = nullptr;
  bool timer_linked = false;
};

/// Resumption-site policy.
template <Platform P>
class Executor {
 public:
  using Ctx = typename P::Context;
  virtual ~Executor() = default;

  /// Grant delivery, called by the releasing thread with no lock guards
  /// held. Must resume op.handle exactly once (possibly on another
  /// thread); op and its record die with the resumed frame.
  virtual void post_grant(Ctx& granter_ctx, AsyncOp<P>& op) = 0;

  /// Timed submission: take over both the enqueue and the timer for a
  /// timeout-carrying op. Executors without a timer thread return false
  /// and the awaiter reports the misuse (only the manager executor can
  /// run the withdrawal protocol on a timer's behalf).
  virtual bool submit_timed(Ctx& launch_ctx, AsyncOp<P>& op) {
    (void)launch_ctx;
    (void)op;
    return false;
  }
};

/// Resumes the granted frame on the releasing thread, inside its unlock
/// call. Zero-hop handoff latency; the critical section the frame then
/// runs extends the releaser's own schedule - the async analogue of
/// direct handoff.
template <Platform P>
class InlineExecutor final : public Executor<P> {
 public:
  using Ctx = typename P::Context;
  void post_grant(Ctx& granter_ctx, AsyncOp<P>& op) override {
    op.resume_ctx = &granter_ctx;
    chk_point<P>(granter_ctx, "co.resume");
    op.handle.resume();
  }
};

/// Resumes granted frames on a fixed pool of worker threads, each with its
/// own registered platform context. Host mutex/condvar are deliberate: the
/// pool is native-platform infrastructure (never instantiated under the
/// checker), and the handoff here is not part of the lock protocol under
/// test.
template <Platform P>
class ThreadPoolExecutor final : public Executor<P> {
 public:
  using Ctx = typename P::Context;

  ThreadPoolExecutor(typename P::Domain& domain, std::size_t threads) {
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this, &domain] { worker(domain); });
    }
  }
  ~ThreadPoolExecutor() override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }
  ThreadPoolExecutor(const ThreadPoolExecutor&) = delete;
  ThreadPoolExecutor& operator=(const ThreadPoolExecutor&) = delete;

  void post_grant(Ctx& /*granter_ctx*/, AsyncOp<P>& op) override {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ready_.push_back(&op);
    }
    cv_.notify_one();
  }

 private:
  void worker(typename P::Domain& domain) {
    Ctx ctx(domain);
    for (;;) {
      AsyncOp<P>* op;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] { return stop_ || !ready_.empty(); });
        if (ready_.empty()) return;  // stop_ and drained
        op = ready_.front();
        ready_.pop_front();
      }
      op->resume_ctx = &ctx;
      op->handle.resume();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<AsyncOp<P>*> ready_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace relock::async

#endif  // RELOCK_ASYNC_ENABLED
