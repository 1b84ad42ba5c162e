// ConfigurableLock: the paper's reconfigurable lock object (sections 3-4).
//
// Structure (Figure 5 of the paper):
//   - object state:      lock word, owner, registration queue, sleeper list
//   - configuration:     waiting attributes (Table 1), scheduler modules
//                        (registration / acquisition / release), placement,
//                        execution mode (passive/active)
//   - monitor module:    LockMonitor statistics
//   - reconfiguration:   possess / configure operations; scheduler changes
//                        obey the configuration delay (the new scheduler
//                        takes effect only once pre-registered waiters are
//                        all served)
//
// Concurrency design. A TAS meta word guards the lock's internal structures
// (the paper: "a primitive low-level lock is often used to enforce mutual
// exclusion of a high-level lock data structure"). The uncontended fast path
// is a single fetch_or on the state word, so a configurable lock configured
// as a spin lock costs about the same as a primitive spin lock (paper Table
// 2). With a scheduler configured, release performs a *direct handoff*: the
// state word never becomes free, the selected waiter's grant flag is set and
// the waiter woken if sleeping - so scheduler decisions cannot be barged.
// With SchedulerKind::kNone the lock is a centralized barging lock: release
// frees the state word and wakes all sleepers (paper section 4.3.2: "wakes
// up a specific thread or all the sleeping threads depending on the release
// policy").
//
// Contended arrival is one pipeline (DESIGN.md "The acquisition pipeline"):
// route (registration, policy read, choice of publish policy), arrive
// (effective attributes, deadline, record, breaker), publish (make the
// record reachable), wait (the waiting component Phi), and on timeout one
// resolve_timeout. On real-concurrency platforms (kRealConcurrency) the
// publish stage takes no meta guard for exclusive locks: the record is
// tail-swapped into the lock-resident WaitQueueCell with a single exchange,
// and the release module - already serialized by meta or by module
// ownership - moves cell records into the module new arrivals register
// under before selecting a grant (the distributed queue serves the cell
// itself), so registration stays "the cost of one write operation" under
// contention.
// Reader-writer locks, and every kind on simulated platforms (whose word
// accesses carry calibrated costs), publish under meta instead, which keeps
// the reproduction tables byte-stable.
//
// Contended-release design (kRealConcurrency, the configuration-quiescence
// epoch): the steady-state contended release does not take the meta guard
// either. Two observations make that safe. First, the release module is
// only ever executed by a thread that owns the state word - the previous
// holder, or a thread that won it from free - and the direct-handoff path
// never publishes the word free, so module ownership passes hand to hand
// along the grant chain. Second, every *configuration* operation
// (reconfiguration, possession, threshold change, scheduler swap, timeout
// withdrawal) announces itself on a host-side breaker count and waits for
// in-flight fast releases to drain (a Dekker handshake with the releaser's
// in-flight count) before mutating anything under meta; a releaser that
// observes a breaker falls back to the guarded slow path - exactly the
// paper's configuration-delay semantics. While quiescent, the releaser
// consults a pre-computed successor cached in `next_grant_` (selected at
// the previous release; re-validated against the scheduler's version
// counter for priority-sensitive kinds) and publishes ownership with a
// single store to the successor's waiter-local grant flag. See
// DESIGN.md "The configuration-quiescence epoch".
//
// The fissile fast path (kRealConcurrency): on top of all of the above the
// state word carries a second bit - kStateContended, "full mode". While it
// is clear the lock is in *fast mode*: no waiter is registered anywhere the
// release module would have to look, so for a fast-eligible configuration
// (exclusive, passive, non-recursive, non-advisory) acquire is one
// test-and-set and release is one CAS of held->free that bypasses the
// release module entirely. Any waiter that registers state the release
// module must observe sets the contended bit first (cell: mark-after-
// push; centralized sleepers: mark under meta), which makes the
// release CAS fail and routes the owner through the full path. The bit is
// sticky across handoff chains and cleared only by the guarded path's
// free-publish, which is exactly the point where no waiter remains - so
// the lock re-enters fast mode by itself once contention drains. See
// DESIGN.md "The fissile fast path".
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "relock/core/attributes.hpp"
#include "relock/core/scheduler.hpp"
#include "relock/core/usage_error.hpp"
#include "relock/core/wait.hpp"
#include "relock/core/waiter.hpp"
#include "relock/monitor/lock_monitor.hpp"
#include "relock/platform/backoff.hpp"
#include "relock/platform/chk_hooks.hpp"
#include "relock/platform/meta_guard.hpp"
#include "relock/platform/platform.hpp"
#include "relock/platform/trace_hooks.hpp"

namespace relock {

/// The awaitable front-end's bridge into the lock's private arrival /
/// withdrawal machinery (relock/async/awaiter.hpp). Declared here so
/// ConfigurableLock can befriend it without including any coroutine
/// headers in core.
template <Platform P>
struct AsyncGate;

template <Platform P>
class ConfigurableLock {
  /// The async front-end replays the arrival, withdrawal, and breaker
  /// protocols on behalf of suspended coroutines; it needs the same access
  /// a member acquire path has.
  friend struct AsyncGate<P>;

  /// The one attribute snapshot type: the lock-wide waiting policy and
  /// every per-thread override are each one seqlock-validated slot, read
  /// lock-free by arriving threads (read_attrs) and written by serialized
  /// writers (write_attrs). `seq` is odd while a write is in flight. The
  /// fields are atomics so torn-read candidates are data-race-free; the
  /// sequence check makes every returned tuple one that was written whole.
  /// Host-side words on every platform, so the simulator's costed access
  /// sequence is untouched.
  struct AttrSlot {
    std::atomic<std::uint32_t> seq{0};
    std::atomic<std::uint32_t> spin{0};
    std::atomic<Nanos> delay{0};
    std::atomic<Nanos> sleep{0};
    std::atomic<Nanos> timeout{0};
    std::atomic<bool> valid{false};
  };

  /// Slot storage published to lock-free readers: the size rides along so a
  /// reader bounds-checks against the array it actually holds, which lets
  /// the array be sized by the highest overridden ThreadId (grown on
  /// demand) instead of the full domain capacity. Sizing by capacity made
  /// every lock's first override cost O(domain capacity) - a real
  /// multiplier once thousands of table locks share one big domain.
  struct AttrSlotArray {
    explicit AttrSlotArray(std::uint32_t n)
        : size(n), slots(std::make_unique<AttrSlot[]>(n)) {}
    const std::uint32_t size;
    std::unique_ptr<AttrSlot[]> slots;
  };

 public:
  using Ctx = typename P::Context;
  using Domain = typename P::Domain;

  struct Options {
    SchedulerKind scheduler = SchedulerKind::kNone;
    LockAttributes attributes = LockAttributes::spin();
    /// Home node of the lock's words.
    Placement placement = Placement::any();
    /// Where waiters' grant flags live: kWaiterLocal = distributed lock
    /// (each waiter polls its own node's memory), kLockHome = centralized.
    WaitPlacement wait_placement = WaitPlacement::kWaiterLocal;
    RwPreference rw_preference = RwPreference::kFifo;
    bool recursive = false;
    bool advisory = false;        ///< waiters poll the owner's advice
    bool monitor_enabled = false;
    Execution execution = Execution::kPassive;
    /// Active locks only: the manager thread polls its mailbox (it owns a
    /// dedicated processor, so releasing threads never pay a wakeup cost).
    /// When false the manager blocks and unlock() must wake it.
    bool active_polling = true;
    /// Delay between the polling manager's mailbox probes.
    Nanos active_poll_interval = 20'000;
    /// Advisory mode: length of one bounded sleep round under kSleep
    /// advice. Waiters "spin and sleep in turn", re-polling the owner's
    /// advice each round, so they notice the end-of-tenure switch to spin.
    Nanos advice_sleep_slice = 500'000;
  };

  ConfigurableLock(Domain& domain, Options opts = Options{})
      : domain_(domain),
        opts_(opts),
        fast_eligible_(kRealConcurrency<P> && !opts.recursive &&
                       !opts.advisory &&
                       opts.execution == Execution::kPassive &&
                       opts.scheduler != SchedulerKind::kReaderWriter),
        meta_(domain, 0, opts.placement),
        state_(domain, 0, opts.placement),
        owner_(domain, 0, opts.placement),
        advice_(domain, 0, opts.placement),
        config_word_(domain, 0, opts.placement),
        sched_reg_(domain, 0, opts.placement),
        sched_acq_(domain, 0, opts.placement),
        sched_rel_(domain, 0, opts.placement),
        sched_flag_(domain, 0, opts.placement),
        registry_(domain, 0, opts.placement),
        possess_word_(domain, 0, opts.placement),
        mailbox_(domain, 0, opts.placement),
        scheduler_kind_(opts.scheduler) {
    // Assigned in the body, not the init list: the kQueue module is a
    // façade over queue_cell_, a member declared further down.
    scheduler_ = make_module(opts.scheduler);
    write_attrs(nullptr, attrs_, opts.attributes, /*valid=*/true);
    if (scheduler_ != nullptr) {
      scheduler_->set_rw_preference(opts.rw_preference);
    }
    monitor_.set_enabled(opts.monitor_enabled);
  }

  ConfigurableLock(const ConfigurableLock&) = delete;
  ConfigurableLock& operator=(const ConfigurableLock&) = delete;

  // =================================================================
  // Acquisition.
  // =================================================================

  /// Acquires the lock. Returns false only if the configured waiting policy
  /// has a timeout (a *conditional lock*, Table 1) and it expired.
  bool lock(Ctx& ctx) { return acquire(ctx, /*shared=*/false, 0); }

  /// Conditional acquisition bounded by `timeout` (overrides the timeout
  /// attribute for this call).
  bool lock_for(Ctx& ctx, Nanos timeout) {
    return acquire(ctx, /*shared=*/false, timeout);
  }

  /// Polling acquisition: single attempt, never waits.
  bool try_lock(Ctx& ctx) {
    if (rw_capable()) return try_acquire_rw(ctx, /*shared=*/false);
    if (opts_.recursive && is_owner(ctx)) {
      ++recursion_depth_;
      return true;
    }
    if (claimed(P::fetch_or(ctx, state_, kStateHeld))) {
      on_claimed(ctx, stamp(ctx));
      return true;
    }
    return false;
  }

  /// Shared (reader) acquisition; requires a reader-writer configuration.
  bool lock_shared(Ctx& ctx) { return acquire(ctx, /*shared=*/true, 0); }
  bool lock_shared_for(Ctx& ctx, Nanos timeout) {
    return acquire(ctx, /*shared=*/true, timeout);
  }
  bool try_lock_shared(Ctx& ctx) {
    if (!rw_capable()) {
      misuse("try_lock_shared on a lock without a reader-writer scheduler");
    }
    return try_acquire_rw(ctx, /*shared=*/true);
  }

  // =================================================================
  // Release.
  // =================================================================

  void unlock(Ctx& ctx) { unlock_to(ctx, kInvalidThread); }

  /// Release with a handoff hint: with SchedulerKind::kHandoff the lock is
  /// granted directly to `hint` if that thread is waiting.
  void unlock_to(Ctx& ctx, ThreadId hint) {
    if (opts_.recursive && recursion_depth_ > 0) {
      --recursion_depth_;
      return;
    }
    note_trace(ctx, LockEvent::kRelease, ctx.self());
    if constexpr (kRealConcurrency<P>) {
      // Clock elision: the hold-time pair feeds only the monitor, so with
      // the monitor off the release path makes no clock read at all. With
      // it on, only acquisitions that drew a timing sample (acquire_time_
      // nonzero) pay the read here; the rest just count the release.
      if (monitor_.enabled()) {
        if (acquire_time_ != 0) {
          monitor_.on_release(P::now(ctx) - acquire_time_);
        } else {
          monitor_.on_release();
        }
      }
      if (fast_eligible_) {
        // Fissile fast unlock: in fast mode (contended bit clear) no
        // waiter state exists for the release module to serve, so one CAS
        // of held->free is the whole release. The CAS (not a plain store)
        // is what makes this sound: a waiter's mark landing first makes it
        // fail, and we fall through to the full paths below. A
        // fast-eligible lock is passive by definition, so the manager
        // handoff below is skipped knowingly.
        chk_point<P>(ctx, "fu.cas");
        if (P::cas(ctx, state_, kStateHeld, 0)) {
          note(ctx, LockEvent::kReleaseFree);
          return;
        }
      }
      if (try_post_release(ctx, hint, /*shared=*/false)) return;
      if (release_fast(ctx, hint)) return;
    } else {
      monitor_.on_release(P::now(ctx) - acquire_time_);
      if (try_post_release(ctx, hint, /*shared=*/false)) return;
    }
    release(ctx, hint, /*shared=*/false);
  }

  void unlock_shared(Ctx& ctx) {
    if (!rw_capable()) {
      misuse("unlock_shared on a lock without a reader-writer scheduler");
    }
    note_trace(ctx, LockEvent::kRelease, ctx.self());
    if (try_post_release(ctx, kInvalidThread, /*shared=*/true)) return;
    release(ctx, kInvalidThread, /*shared=*/true);
  }

  // =================================================================
  // Advisory / speculative locks (paper section 4.3.2).
  // =================================================================

  /// Publishes the owner's advice to current and future waiters. Usually
  /// called by the lock owner from inside the critical section; the advice
  /// may be changed at different stages of the critical section.
  ///
  /// `expected_remaining` (kSleep only) is the owner's estimate of its
  /// remaining tenure: "the current lock owner is the best source of
  /// information for the length of lock ownership". Waiters sleep until
  /// just before that deadline and then spin, so a long tenure costs them
  /// one block instead of continuous spinning, yet the handoff at the end
  /// is spin-fast.
  void advise(Ctx& ctx, Advice a, Nanos expected_remaining = 0) {
    std::uint64_t v = static_cast<std::uint64_t>(a);
    if (a == Advice::kSleep && expected_remaining > 0) {
      v |= (P::now(ctx) + expected_remaining) << 2;
    }
    P::store(ctx, advice_, v);
  }

  /// Reads the current advice (costed platform read).
  Advice current_advice(Ctx& ctx) {
    return static_cast<Advice>(P::load(ctx, advice_) & 3);
  }

  // =================================================================
  // Reconfiguration (paper sections 3.2 / 4.2).
  // =================================================================

  /// Acquires exclusive ownership of an attribute class so an external
  /// agent can reconfigure it. Cost: one test-and-set (paper Table 6).
  bool try_possess(Ctx& ctx, AttributeClass c) {
    const auto bit = static_cast<std::uint64_t>(c);
    const bool won = (P::fetch_or(ctx, possess_word_, bit) & bit) == 0;
    if (won) {
      // Possession opens a reconfiguration window: breaks the quiescence
      // epoch so releasers stay on the guarded path until it is released.
      arm_breaker(ctx, "possess.arm");
      note_trace(ctx, LockEvent::kPossess, bit);
    }
    return won;
  }
  void possess(Ctx& ctx, AttributeClass c) {
    while (!try_possess(ctx, c)) {
      P::pause(ctx);
    }
  }
  void release_possession(Ctx& ctx, AttributeClass c) {
    const auto bit = static_cast<std::uint64_t>(c);
    const std::uint64_t prev = P::fetch_and(ctx, possess_word_, ~bit);
    if ((prev & bit) != 0) {
      disarm_breaker(ctx, "possess.disarm");
      note_trace(ctx, LockEvent::kUnpossess, bit);
    }
  }

  /// Changes the waiting policy attributes. Cost: one read + one write of
  /// the configuration word (paper: "a simple dynamic alteration of waiting
  /// mechanism needs only one memory read and one memory write", 1R1W).
  /// Takes effect for subsequent acquisitions; in-flight waiters keep the
  /// policy they registered with. Concurrent calls serialize on the
  /// attribute snapshot itself, which adds no costed access.
  void configure_waiting(Ctx& ctx, LockAttributes attrs) {
    QuiesceGuard quiesce(ctx, *this);
    note(ctx, LockEvent::kConfigMutateBegin);
    (void)P::load(ctx, config_word_);
    write_attrs(&ctx, attrs_, attrs, /*valid=*/true);
    P::store(ctx, config_word_, config_version_.fetch_add(1) + 1);
    note(ctx, LockEvent::kConfigMutateEnd);
    monitor_.on_reconfiguration(/*scheduler_change=*/false);
  }

  /// Changes the lock scheduler. Cost: 1R5W (paper section 4.1): three
  /// writes for the scheduler submodules, one to set the configuration-
  /// delay flag, and one - deferred - to reset it once all pre-registered
  /// threads have been served. Until then the old scheduler keeps serving
  /// its queue while new arrivals register with the incoming scheduler.
  /// Reader-writer capability is fixed at construction: switching between
  /// RW and non-RW kinds is not supported.
  void configure_scheduler(Ctx& ctx, SchedulerKind kind) {
    if (kind == SchedulerKind::kCustom) {
      misuse("install custom schedulers by instance (unique_ptr overload)");
    }
    install_scheduler(ctx, kind, make_module(kind));
  }

  /// Installs a user-supplied scheduler module - the extension point the
  /// paper's kernel-configurability argument calls for (e.g. the
  /// deadline-based EdfScheduler). Same cost model and configuration-delay
  /// semantics as the built-in kinds.
  void configure_scheduler(Ctx& ctx, std::unique_ptr<Scheduler<P>> custom) {
    if (custom == nullptr) misuse("configure_scheduler with a null scheduler");
    const SchedulerKind kind = custom->kind();
    install_scheduler(ctx, kind, make_module(kind, std::move(custom)));
  }

  /// Priority-threshold scheduler parameter. If the lock is currently free,
  /// lowering the threshold re-runs grant selection so newly eligible
  /// waiters are served.
  void set_priority_threshold(Ctx& ctx, Priority threshold) {
    QuiesceGuard quiesce(ctx, *this);
    meta_lock(ctx);
    note(ctx, LockEvent::kConfigMutateBegin);
    // A fast release may have pre-dequeued the next grantee; return it so
    // the threshold applies to it too and the empty() probe below is real.
    reclaim_next_grant(ctx);
    if (scheduler_ != nullptr) scheduler_->set_threshold(threshold);
    if (pending_scheduler_ != nullptr) {
      pending_scheduler_->set_threshold(threshold);
    }
    threshold_mirror_.store(threshold, std::memory_order_relaxed);
    note(ctx, LockEvent::kThresholdSet,
                 static_cast<std::uint64_t>(
                     static_cast<std::int64_t>(threshold)));
    note(ctx, LockEvent::kConfigMutateEnd);
    monitor_.on_reconfiguration(/*scheduler_change=*/false);
    if (!held_locked() && scheduler_ != nullptr && !scheduler_->empty()) {
      // Lock is free with waiters that may have just become eligible. The
      // claim carries the contended bit (kClaimMark): a direct handoff may
      // follow, and the grantee's release must see full mode while the
      // remaining waiters stay queued.
      if (claimed(P::fetch_or(ctx, state_, kClaimMark))) {
        grant_or_free(ctx, kInvalidThread);  // releases meta
        return;
      }
    }
    meta_unlock(ctx);
  }

  void set_rw_preference(Ctx& ctx, RwPreference pref) {
    QuiesceGuard quiesce(ctx, *this);
    meta_lock(ctx);
    note(ctx, LockEvent::kConfigMutateBegin);
    opts_.rw_preference = pref;
    if (scheduler_ != nullptr) scheduler_->set_rw_preference(pref);
    if (pending_scheduler_ != nullptr) {
      pending_scheduler_->set_rw_preference(pref);
    }
    note(ctx, LockEvent::kConfigMutateEnd);
    monitor_.on_reconfiguration(/*scheduler_change=*/false);
    meta_unlock(ctx);
  }

  /// Per-thread waiting-policy override: the acquisition module "implements
  /// a mapping of thread-id to the appropriate methods for waiting" (paper
  /// section 3.2). Threads with an override use it instead of the lock-wide
  /// attributes.
  void set_thread_attributes(Ctx& ctx, ThreadId tid, LockAttributes attrs) {
    // Checked before the quiescence epoch is broken or meta is taken:
    // misuse() unwinds, and it must leave no lock state to restore.
    if constexpr (kRealConcurrency<P>) {
      if (tid >= domain_.capacity()) {
        misuse("set_thread_attributes: tid outside the lock's thread domain");
      }
    }
    QuiesceGuard quiesce(ctx, *this);
    meta_lock(ctx);
    note(ctx, LockEvent::kConfigMutateBegin);
    // Flat slot array indexed by ThreadId, published via an atomic pointer
    // and read without the meta guard; writers serialize on meta. The
    // array covers [0, size) and is regrown (power of two, floor 8) when an
    // override lands beyond it; superseded arrays are retired, not freed,
    // because a lock-free reader may still hold one - total retained memory
    // stays under 2x the final array.
    AttrSlotArray* arr = attr_slots_.load(std::memory_order_relaxed);
    if (arr == nullptr || tid >= arr->size) {
      const std::uint32_t want = std::max<std::uint32_t>(
          8u, std::bit_ceil(static_cast<std::uint32_t>(tid) + 1u));
      auto grown = std::make_unique<AttrSlotArray>(
          arr == nullptr ? want : std::max(want, arr->size));
      for (std::uint32_t i = 0; arr != nullptr && i < arr->size; ++i) {
        LockAttributes a;
        const bool valid = read_attrs(nullptr, arr->slots[i], a);
        write_attrs(nullptr, grown->slots[i], a, valid);
      }
      attr_slots_.store(grown.get(), std::memory_order_release);
      arr = grown.get();
      attr_slot_storage_.push_back(std::move(grown));
    }
    AttrSlot& s = arr->slots[tid];
    if (!s.valid.load(std::memory_order_relaxed)) ++attr_override_count_;
    write_attrs(&ctx, s, attrs, /*valid=*/true);
    has_thread_attrs_.store(true, std::memory_order_relaxed);
    note(ctx, LockEvent::kConfigMutateEnd);
    meta_unlock(ctx);
  }
  void clear_thread_attributes(Ctx& ctx, ThreadId tid) {
    QuiesceGuard quiesce(ctx, *this);
    meta_lock(ctx);
    note(ctx, LockEvent::kConfigMutateBegin);
    AttrSlotArray* arr = attr_slots_.load(std::memory_order_relaxed);
    if (arr != nullptr && tid < arr->size &&
        arr->slots[tid].valid.load(std::memory_order_relaxed)) {
      --attr_override_count_;
      write_attrs(&ctx, arr->slots[tid], LockAttributes{}, /*valid=*/false);
    }
    has_thread_attrs_.store(attr_override_count_ != 0,
                            std::memory_order_relaxed);
    note(ctx, LockEvent::kConfigMutateEnd);
    meta_unlock(ctx);
  }

  // =================================================================
  // Active locks (paper section 4.3.3): a dedicated manager thread
  // executes the release module on behalf of releasing threads.
  // =================================================================

  /// Manager loop. Spawn a thread bound to the lock and call serve() from
  /// it; returns after stop_serving() (at once if the stop came first).
  /// While serving, unlock() merely posts a release request and wakes the
  /// manager.
  void serve(Ctx& ctx) {
    manager_tid_.store(ctx.self(), std::memory_order_relaxed);
    serving_.store(true);
    for (;;) {
      if (stop_.load()) {
        // Stop accepting new posts first, then serve the stragglers:
        // releases arriving after this point run inline (passive path). A
        // releaser that read serving_ true before the store is still
        // posting; wait it out so the load below sees its post.
        chk_point<P>(ctx, "mgr.stop");
        serving_.store(false);
        for (std::uint32_t streak = 0; posting_.load() != 0;) {
          spin_step<P>(ctx, streak);
        }
        const std::uint64_t last = P::load(ctx, mailbox_);
        P::store(ctx, mailbox_, 0);
        if (last != 0 && last != kMailboxShared) {
          release(ctx, decode_mailbox_hint(last), /*shared=*/false);
        }
        drain_releases(ctx);
        break;
      }
      // Only touch the (atomically guarded) request queue when the doorbell
      // rang: an idle manager re-acquiring meta in a loop would saturate the
      // lock's home memory module and starve releasing threads.
      const std::uint64_t box = P::load(ctx, mailbox_);
      if (box != 0) {
        P::store(ctx, mailbox_, 0);
        if (box == kMailboxShared) {
          drain_releases(ctx);
        } else {
          // Exclusive release posted inline in the mailbox word.
          release(ctx, decode_mailbox_hint(box), /*shared=*/false);
        }
        continue;
      }
      if (opts_.active_polling) {
        // Dedicated processor: poll the mailbox at the configured interval.
        P::delay(ctx, opts_.active_poll_interval);
      } else {
        P::block(ctx);
      }
    }
    stop_.store(false, std::memory_order_relaxed);
  }

  void stop_serving(Ctx& ctx) {
    stop_.store(true);
    const ThreadId mgr = manager_tid_.load(std::memory_order_relaxed);
    if (mgr != kInvalidThread) P::unblock(ctx, mgr);
  }

  // =================================================================
  // Introspection (host-side; approximate under concurrency).
  // =================================================================

  [[nodiscard]] LockAttributes attributes() const {
    LockAttributes a;
    (void)read_attrs(nullptr, attrs_, a);
    return a;
  }
  [[nodiscard]] SchedulerKind scheduler_kind() const {
    return scheduler_kind_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool reconfiguration_pending() const {
    return has_pending_.load(std::memory_order_relaxed);
  }
  /// Scheduler kind the next arrival will register under: the incoming
  /// module's kind while a configuration delay is in effect, else the
  /// installed one. Lock-free advisory read; external governors compare it
  /// against an intended kind to suppress no-op reconfigurations without
  /// taking possession.
  [[nodiscard]] SchedulerKind target_scheduler_kind() const noexcept {
    return arrival_target_kind();
  }
  /// Last threshold installed via set_priority_threshold (kDefaultPriority
  /// until one is). Host-side mirror: the live scheduler-module pointer may
  /// be mid-swap during a reconfiguration, so governors read this instead
  /// of chasing the module.
  [[nodiscard]] Priority priority_threshold() const noexcept {
    return threshold_mirror_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] LockMonitor& monitor() noexcept { return monitor_; }
  [[nodiscard]] const LockMonitor& monitor() const noexcept {
    return monitor_;
  }
  [[nodiscard]] std::uint32_t waiter_count() const {
    return waiter_count_.load(std::memory_order_relaxed);
  }

  /// The lock's state per the paper's Figure 4, using a costed read of the
  /// state word: locked, unlocked, or *idle* (free with waiting threads).
  [[nodiscard]] LockState state(Ctx& ctx) {
    const bool held = (P::load(ctx, state_) & kStateHeld) != 0;
    if (held) return LockState::kLocked;
    return waiter_count() > 0 ? LockState::kIdle : LockState::kUnlocked;
  }
  [[nodiscard]] const Options& options() const noexcept { return opts_; }

  /// True when this configuration can take the fissile fast paths at all
  /// (exclusive, passive, non-recursive, non-advisory on a real platform).
  [[nodiscard]] bool fast_path_eligible() const noexcept {
    return fast_eligible_;
  }
  /// True when the lock is currently in fast mode: eligible AND the
  /// contended bit is clear, so the next uncontended acquire/release pair
  /// is one RMW each. Costed read; advisory under concurrency like the
  /// other introspection calls.
  [[nodiscard]] bool in_fast_mode(Ctx& ctx) {
    return fast_eligible_ && (P::load(ctx, state_) & kStateContended) == 0;
  }

 private:
  /// Where a contended arrival publishes its record - the publish stage's
  /// policy, chosen by route() and consumed by publish() and
  /// resolve_timeout() (DESIGN.md "The acquisition pipeline").
  enum class Publish : std::uint8_t {
    kEntered,  ///< nothing to publish: route() entered the lock under meta
    kBarge,    ///< nothing to publish: centralized barging (kNone)
    kCell,     ///< MCS tail swap into the lock's cell (kRealConcurrency)
    kMeta,     ///< module enqueue under the meta guard (sim; reader-writer)
  };

  /// Breaks the quiescence epoch (one more breaker). `tag` names the
  /// checker's scheduling point before the increment.
  void arm_breaker(Ctx& ctx, const char* tag) {
    if constexpr (kRealConcurrency<P>) {
      chk_point<P>(ctx, tag);
      quiesce_breakers_.fetch_add(1, std::memory_order_seq_cst);
      note(ctx, LockEvent::kBreakerArm);
    } else {
      (void)ctx;
      (void)tag;
    }
  }
  /// Retires one breaker. A null `tag` emits the event with no scheduling
  /// point: destructors must not throw the checker's unwind exception.
  void disarm_breaker(Ctx& ctx, const char* tag) {
    if constexpr (kRealConcurrency<P>) {
      if (tag != nullptr) chk_point<P>(ctx, tag);
      quiesce_breakers_.fetch_sub(1, std::memory_order_seq_cst);
      note(ctx, LockEvent::kBreakerDisarm);
    } else {
      (void)ctx;
      (void)tag;
    }
  }

  /// RAII configuration breaker: holds the fast path off (and waits out
  /// in-flight fast releases) so the caller may mutate scheduler modules,
  /// thresholds or attribute slots under meta.
  class QuiesceGuard {
   public:
    QuiesceGuard(Ctx& ctx, ConfigurableLock& lock) : ctx_(ctx), lock_(lock) {
      lock_.arm_breaker(ctx, "qg.arm");
      lock_.wait_fast_releases(ctx);
    }
    ~QuiesceGuard() { lock_.disarm_breaker(ctx_, nullptr); }
    QuiesceGuard(const QuiesceGuard&) = delete;
    QuiesceGuard& operator=(const QuiesceGuard&) = delete;

   private:
    Ctx& ctx_;
    ConfigurableLock& lock_;
  };

  /// Non-waiting breaker, armed by arrive() for conditional (timeout-
  /// capable) waiters for the duration of their wait: a record that may be
  /// withdrawn off-queue must not be fast-granted or pre-selected behind
  /// the meta guard's back. Unlike QuiesceGuard it does not wait out
  /// in-flight releases at arm time - resolve_timeout does, under meta.
  /// A coroutine waiter's token lives in its op and is disarmed before the
  /// frame resumes.
  class BreakerToken {
   public:
    BreakerToken() = default;
    void arm(Ctx& ctx, ConfigurableLock& lock) {
      lock_ = &lock;
      ctx_ = &ctx;
      lock.arm_breaker(ctx, "bt.arm");
    }
    void disarm() {
      if (lock_ == nullptr) return;
      lock_->disarm_breaker(*ctx_, nullptr);
      lock_ = nullptr;
    }
    ~BreakerToken() { disarm(); }
    BreakerToken(const BreakerToken&) = delete;
    BreakerToken& operator=(const BreakerToken&) = delete;

   private:
    ConfigurableLock* lock_ = nullptr;
    Ctx* ctx_ = nullptr;
  };

  [[nodiscard]] bool rw_capable() const noexcept {
    return opts_.scheduler == SchedulerKind::kReaderWriter;
  }

  [[nodiscard]] bool is_owner(Ctx& ctx) {
    return P::load(ctx, owner_) ==
           static_cast<std::uint64_t>(ctx.self()) + 1;
  }

  /// True while some thread/batch holds the lock. Meta must be held (used
  /// only on meta-guarded slow paths); reads host mirrors.
  [[nodiscard]] bool held_locked() const noexcept {
    return holders_ != 0;
  }

  // ------------------------------------------------------------- meta ----

  // The one meta guard (platform/meta_guard.hpp): pure TTAS on the
  // simulator, escalating to busy delays and yields on real platforms.
  void meta_lock(Ctx& ctx) { relock::meta_lock<P>(ctx, meta_); }
  void meta_unlock(Ctx& ctx) { relock::meta_unlock<P>(ctx, meta_); }

  // ------------------------------------------------------- attributes ----

  /// The one attribute read: a consistent snapshot of `s` into `out`;
  /// returns the slot's valid flag. Lock-free and RMW-free - every arriving
  /// thread reads the lock-wide slot, so validation is plain loads: the
  /// field loads are acquire (pairing with the writer's release stores), so
  /// the closing sequence load cannot move above them, and any field
  /// written by a later writer makes that load see the writer's odd claim.
  /// `ctx` is null only for host-side reads that no writer can race
  /// (array regrowth under meta) or that need no scheduling point
  /// (introspection, which under the checker must therefore not race a
  /// writer suspended mid-write); with it, the read is a relock-check
  /// yield point between its halves and reports its tuple to the checker.
  static bool read_attrs(Ctx* ctx, const AttrSlot& s, LockAttributes& out) {
    for (std::uint32_t streak = 0;;) {
      const std::uint32_t v = s.seq.load(std::memory_order_acquire);
      if ((v & 1u) == 0) {
        out.spin_count = s.spin.load(std::memory_order_acquire);
        out.delay_ns = s.delay.load(std::memory_order_acquire);
        if (ctx != nullptr) chk_point<P>(*ctx, "attr.read");
        out.sleep_ns = s.sleep.load(std::memory_order_acquire);
        out.timeout_ns = s.timeout.load(std::memory_order_acquire);
        const bool valid = s.valid.load(std::memory_order_acquire);
        if (s.seq.load(std::memory_order_relaxed) == v) {
          if (ctx != nullptr && valid) {
            chk_attrs<P>(*ctx, out.spin_count, out.delay_ns, out.sleep_ns,
                         out.timeout_ns);
          }
          return valid;
        }
      }
      if (ctx != nullptr) spin_step<P>(*ctx, streak);  // a write is in flight
    }
  }

  /// The one attribute write. Writers serialize on the sequence word
  /// itself - claiming an even value by moving it odd - so concurrent
  /// configure_waiting calls cannot interleave their fields, and the claim
  /// is host-side (configure_waiting stays 1R1W in costed accesses). The
  /// release field stores cannot rise above the claim. `ctx` as for
  /// read_attrs: null only where no other writer or reader can run.
  static void write_attrs(Ctx* ctx, AttrSlot& s, const LockAttributes& a,
                          bool valid) {
    std::uint32_t v = s.seq.load(std::memory_order_relaxed);
    for (std::uint32_t streak = 0;
         (v & 1u) != 0 || !s.seq.compare_exchange_weak(
                              v, v + 1, std::memory_order_acquire,
                              std::memory_order_relaxed);
         v = s.seq.load(std::memory_order_relaxed)) {
      if (ctx != nullptr) spin_step<P>(*ctx, streak);
    }
    s.spin.store(a.spin_count, std::memory_order_release);
    s.delay.store(a.delay_ns, std::memory_order_release);
    if (ctx != nullptr) chk_point<P>(*ctx, "attr.write");
    s.sleep.store(a.sleep_ns, std::memory_order_release);
    s.timeout.store(a.timeout_ns, std::memory_order_release);
    s.valid.store(valid, std::memory_order_release);
    s.seq.store(v + 2, std::memory_order_release);
  }

  /// Effective attributes for an arriving thread: its per-thread override
  /// if one exists ("a mapping of thread-id to the appropriate methods for
  /// waiting", paper section 3.2), else the lock-wide policy; a lock_for()
  /// timeout replaces the tuple's own.
  [[nodiscard]] LockAttributes effective_attrs(Ctx& ctx, Nanos timeout) {
    LockAttributes a;
    const ThreadId tid = ctx.self();
    // A thread past the array's end has no override by construction:
    // setting one grows the array to cover its ThreadId first.
    const AttrSlotArray* arr =
        has_thread_attrs_.load(std::memory_order_relaxed)
            ? attr_slots_.load(std::memory_order_acquire)
            : nullptr;
    if (arr == nullptr || tid >= arr->size ||
        !read_attrs(&ctx, arr->slots[tid], a)) {
      (void)read_attrs(&ctx, attrs_, a);
    }
    if (timeout != 0) a.timeout_ns = timeout;
    return a;
  }

  [[nodiscard]] static bool policy_may_sleep(const LockAttributes& a,
                                             bool advisory) noexcept {
    return a.sleep_ns > 0 || advisory;
  }

  // ------------------------------------------------------ observers ------

  /// Reports one semantic transition to both observers that may be
  /// compiled in: the relock-check oracles (chk_event) and the calling
  /// thread's relock-trace ring (trc_event). Emitting from one call site
  /// makes the two event streams share vocabulary AND order by
  /// construction - check_trace_test asserts a trace equals the checker's
  /// event log record for record.
  void note(Ctx& ctx, LockEvent e, std::uint64_t arg = 0) {
    chk_event<P>(ctx, e, arg);
    trc_event<P>(ctx, trace_tag_, e, arg);
  }

  /// Trace-only transitions (acquire flavor, release entry, park/unpark,
  /// possession): thread-local progress markers outside the checker's
  /// oracle vocabulary. Deliberately NOT routed through chk_event - every
  /// checker event opens spin gates (note_write), so adding kinds there
  /// would perturb the schedule spaces of existing scenarios.
  void note_trace(Ctx& ctx, LockEvent e, std::uint64_t arg = 0) {
    trc_event<P>(ctx, trace_tag_, e, arg);
  }

  /// Hard API-misuse error; see LockUsageError.
  [[noreturn]] static void misuse(const char* what) {
    throw LockUsageError(what);
  }

  // ------------------------------------------------ state-word layout ----
  // bit 0: the busy indicator, exactly as the paper has it.
  // bit 1 (kRealConcurrency only): "full mode". Set by any waiter that
  // registers state only the release module can serve (a cell record, a
  // centralized sleeper) and by guarded re-grabs of a free word
  // with such state outstanding; cleared only by the guarded free-publish
  // in grant_or_free, which runs exactly when no such state remains. While
  // clear, a fast-eligible owner's release is a single held->free CAS.
  // Simulated platforms never set the bit (their state word stays 0/1 and
  // the calibrated tables stay byte-identical), so every comparison of a
  // state-word RMW result goes through claimed() instead of == 0: the
  // contended bit may ride along in the previous value with the claim
  // still having succeeded.

  static constexpr std::uint64_t kStateHeld = 1;
  static constexpr std::uint64_t kStateContended = 2;
  /// Or-mask for claims that must leave the word in full mode on real
  /// platforms (claims that may be followed by a direct handoff, or that
  /// must disable the fast unlock of whoever wins the word instead).
  static constexpr std::uint64_t kClaimMark =
      kRealConcurrency<P> ? (kStateHeld | kStateContended) : kStateHeld;

  /// True iff a state-word claim RMW took the lock: bit 0 was clear.
  [[nodiscard]] static constexpr bool claimed(std::uint64_t prev) noexcept {
    return (prev & kStateHeld) == 0;
  }

  // -------------------------------------------------------- acquire ------

  bool acquire(Ctx& ctx, bool shared, Nanos timeout) {
    if (!rw_capable()) {
      if (shared) {
        misuse("lock_shared on a lock without a reader-writer scheduler");
      }
      if (opts_.recursive && is_owner(ctx)) {
        ++recursion_depth_;
        return true;
      }
    }
    const Nanos t0 = stamp(ctx);
    // An explicit lock_for() deadline is anchored HERE, at arrival, even
    // when the monitor stamp is elided: a lazy read inside the slow path
    // would silently extend the timeout by the time spent getting there.
    const Nanos anchor = timeout != 0 && t0 == 0 ? P::now(ctx) : t0;
    // Fast path: one RMW, like a primitive spin lock (paper Table 2). For
    // fast-eligible locks the claim is the whole acquisition: no owner
    // registration, and one monitor-enabled load gates the bookkeeping.
    // Reader-writer entry is decided under meta, so RW locks go straight
    // to the pipeline.
    if (!rw_capable() && claimed(P::fetch_or(ctx, state_, kStateHeld))) {
      on_claimed(ctx, t0);
      return true;
    }
    return acquire_slow(ctx, shared, timeout, t0, anchor);
  }

  /// Contended acquisition: the pipeline's stages in order (DESIGN.md "The
  /// acquisition pipeline").
  bool acquire_slow(Ctx& ctx, bool shared, Nanos timeout, Nanos t0,
                    Nanos anchor) {
    const Publish via = route(ctx, shared, t0, /*barge_ok=*/true);
    if (via == Publish::kEntered) return true;
    const LockAttributes attrs = effective_attrs(ctx, timeout);
    BreakerToken breaker;
    const Nanos deadline = arrive(ctx, attrs.timeout_ns, anchor, via, breaker);
    if (via == Publish::kBarge) {
      // Centralized barging (kNone): one retry on real platforms (the
      // simulator retried under meta in route()), then the TTAS engine.
      if ((kRealConcurrency<P> &&
           claimed(P::fetch_or(ctx, state_, kStateHeld))) ||
          wait_centralized(ctx, attrs, deadline) == WaitResult::kGranted) {
        on_acquired_exclusive(ctx, /*contended=*/true, t0);
        return true;
      }
      monitor_.on_timeout();
      return false;
    }
    // Oversubscription escalation: with more live threads than processors
    // a spinning waiter mostly burns the quantum of the very thread that
    // must hand it the lock, so even spin-policy waiters register as
    // sleepable (grants will signal them) and the waiting engine may park
    // them after a yield streak. The flag is latched here: a waiter that
    // registered non-sleepable never parks, even if the domain becomes
    // oversubscribed mid-wait, because its grant would not wake it.
    WaiterRecord<P> rec(domain_, ctx.self(), ctx.priority(),
                        grant_flag_placement(ctx), shared,
                        policy_may_sleep(attrs, opts_.advisory) ||
                            oversubscribed<P>(ctx));
    rec.enqueue_time = t0;
    publish(ctx, rec, via);
    // Queued waiting: Phi polls (or sleeps on) the record's own grant flag.
    const WaitResult waited = wait_queued<P>(
        ctx, attrs, deadline, rec.may_sleep,
        [&] { return P::load(ctx, rec.granted) != 0; }, taps(), advisor(ctx));
    if (waited == WaitResult::kTimedOut && resolve_timeout(ctx, rec, via)) {
      return false;
    }
    waiter_count_.fetch_sub(1, std::memory_order_relaxed);
    on_granted(ctx, shared, t0);
    return true;
  }

  /// Kind the next arrival will register under (advisory, lock-free read).
  [[nodiscard]] SchedulerKind arrival_target_kind() const noexcept {
    return has_pending_.load(std::memory_order_relaxed)
               ? pending_kind_.load(std::memory_order_relaxed)
               : scheduler_kind_.load(std::memory_order_relaxed);
  }

  /// Module new registrations go to: the incoming one during a
  /// configuration delay, else the installed one (nullptr for kNone).
  /// Meta held.
  [[nodiscard]] Scheduler<P>* arrival_target() const noexcept {
    return has_pending_.load(std::memory_order_relaxed)
               ? pending_scheduler_.get()
               : scheduler_.get();
  }

  /// Route: registration - logging the requester's identity, "the cost of
  /// one write operation" (paper section 3.2) - and the acquisition
  /// module's read of the waiting-policy word (the 1R configure pairs
  /// with), then the publish policy for this arrival. Exclusive arrivals
  /// on real platforms publish into the cell without meta, except barging
  /// threads under kNone (read from the advisory target kind): a racing
  /// reconfiguration is absorbed by the release module's cell drain, which
  /// registers each record with whatever module is the arrival target by
  /// then (the orphan queue when there is none). Everything else takes
  /// meta and retries entry under it - the lock may have been freed
  /// meanwhile, and the RMW keeps the retry correct against fast-path
  /// acquirers that never take meta - and returns kMeta with meta still
  /// held for publish(). `barge_ok` is false for waiters that cannot run
  /// the barging engine (coroutines), which ride the cell under kNone.
  Publish route(Ctx& ctx, bool shared, Nanos t0, bool barge_ok) {
    P::store(ctx, registry_, static_cast<std::uint64_t>(ctx.self()) + 1);
    (void)P::load(ctx, config_word_);
    if (kRealConcurrency<P> && !rw_capable()) {
      return barge_ok && arrival_target_kind() == SchedulerKind::kNone
                 ? Publish::kBarge
                 : Publish::kCell;
    }
    meta_lock(ctx);
    if (enter_locked(ctx, shared, t0)) return Publish::kEntered;
    if (arrival_target() != nullptr) return Publish::kMeta;
    meta_unlock(ctx);
    return Publish::kBarge;
  }

  /// Meta held. Immediate entry without waiting (a reader-writer admission,
  /// or a claim of a free word); on success releases meta and runs the
  /// acquisition bookkeeping.
  bool enter_locked(Ctx& ctx, bool shared, Nanos t0) {
    if (rw_capable()) {
      if (!rw_can_enter(shared)) return false;
      rw_enter(ctx, shared);
      meta_unlock(ctx);
      if (shared) {
        monitor_.on_shared_acquire();
      } else {
        on_acquired_exclusive(ctx, /*contended=*/false, t0);
      }
      return true;
    }
    if (!claimed(P::fetch_or(ctx, state_, kStateHeld))) return false;
    holders_ = 1;
    meta_unlock(ctx);
    on_acquired_exclusive(ctx, /*contended=*/true, t0);
    return true;
  }

  /// Arrive: anchors the wait's deadline - at `anchor` when acquire() took
  /// one, else here, at registration, which is where an attribute-
  /// configured timeout is first known - and arms `breaker` for a timed
  /// wait whose record a fast release could reach. A record that may be
  /// withdrawn off-queue must never be granted (or pre-selected) by a fast
  /// release racing the withdrawal, so conditional waiters break the
  /// quiescence epoch for their entire wait. Armed BEFORE the record is
  /// published: any fast release that could select it either sees the
  /// breaker and stands down, or is already in flight and is waited out by
  /// resolve_timeout. Meta-published records need no breaker (only the
  /// guarded path serves them), nor do barging waiters (no record).
  Nanos arrive(Ctx& ctx, Nanos timeout, Nanos anchor, Publish via,
               BreakerToken& breaker) {
    if (timeout == 0) return kForever;
    const Nanos deadline = (anchor != 0 ? anchor : P::now(ctx)) + timeout;
    if (via == Publish::kCell) breaker.arm(ctx, *this);
    return deadline;
  }

  /// Publish: makes `rec` reachable by the release module under policy
  /// `via` (kMeta or kCell) and counts it as a waiter.
  void publish(Ctx& ctx, WaiterRecord<P>& rec, Publish via) {
    if (via == Publish::kMeta) {
      // Meta held since route(): register with the module directly.
      adopt(ctx, rec, arrival_target());
      note(ctx, LockEvent::kRegistered, rec.tid);
      waiter_count_.fetch_add(1, std::memory_order_relaxed);
      meta_unlock(ctx);
      return;
    }
    // MCS enqueue (WaitQueueCell::push). wait_queued polls the record-local
    // grant flag wherever the release module moves the record, so the
    // waiting is "distributed" in the paper's Fig. 9 sense whatever Phi is.
    // The push's tail exchange fixes the registration order and follows
    // this point with no scheduling point in between, so the event reports
    // it in the same checker step, before the link window opens.
    chk_point<P>(ctx, "qa.swap");
    note(ctx, LockEvent::kRegistered, rec.tid);
    queue_cell_.push(&ctx, rec);
    waiter_count_.fetch_add(1, std::memory_order_relaxed);

    // Full-mode mark + lost-release guard. The contended-bit fetch_or does
    // two jobs. (a) It disables the owner's single-CAS fast unlock while
    // our record sits in the cell or a scheduler queue - a fast unlock
    // neither drains the cell nor runs the release module, so without the
    // mark a fast unlock/lock pair could strand us. Ordering matters: mark
    // AFTER publishing, or a racing guarded free-publish (which stores 0)
    // could erase a mark made before our record was visible. (b) It
    // doubles as the lost-release Dekker re-check: a releaser that drained
    // before our publication may have published the lock free and left,
    // but the tail exchange was a seq_cst RMW and the releaser re-examines
    // the tail with one after publishing free, so at least one side
    // observes the other - if we see the free state, we close the gate and
    // run the release module ourselves. A coroutine record may be granted
    // - and its frame resumed - from inside this call.
    chk_point<P>(ctx, "arr.mark");
    if (claimed(P::fetch_or(ctx, state_, kStateContended)) &&
        claimed(P::fetch_or(ctx, state_, kStateHeld))) {
      meta_lock(ctx);
      grant_or_free(ctx, kInvalidThread);  // drains the cell, may grant us
    }
  }

  /// Timeout-vs-grant resolution for a record published under `via`, run
  /// once its wait timed out. Returns true when the record was withdrawn
  /// (the timeout wins), false when a grant beat the withdrawal; the
  /// caller then consumes the grant as usual. Under meta it first waits
  /// out any fast release that began before the breaker armed (it may have
  /// drained, granted, or cached the record), then re-checks both grant
  /// flags - the fast path never sets the host-side one - and unlinks the
  /// record from wherever it lives now: the next-grant cache, the module
  /// that enqueued it, the cell (MCS-with-timeout self-removal, also for a
  /// record no release drained yet), or the orphan queue. A fast grant
  /// publishes the flag before retiring from the in-flight epoch, so the
  /// re-check observes every such grant even when a coroutine's delivery
  /// hook is still in flight.
  bool resolve_timeout(Ctx& ctx, WaiterRecord<P>& rec, Publish via) {
    meta_lock(ctx);
    wait_fast_releases(ctx);
    // Meta-published records are granted only under meta, which sets the
    // host flag; skipping their costed flag read keeps the simulator's
    // access sequence.
    if (rec.granted_flag_host ||
        (via != Publish::kMeta && P::load(ctx, rec.granted) != 0)) {
      meta_unlock(ctx);
      return false;
    }
    chk_point<P>(ctx, "to.cache");
    if (next_grant_.load(std::memory_order_relaxed) == &rec) {
      next_grant_.store(nullptr, std::memory_order_relaxed);
    } else {
      withdraw(ctx, rec);
    }
    note(ctx, LockEvent::kTimeoutReturn, rec.tid);
    // A withdrawal that empties the outgoing module ends the configuration
    // delay. The lock may be free - that module held only ineligible
    // waiters - so no release would install the incoming module and serve
    // its waiters: claim the word and run the release module here, as
    // set_priority_threshold does.
    if (has_pending_.load(std::memory_order_relaxed) && scheduler_->empty() &&
        claimed(P::fetch_or(ctx, state_, kClaimMark))) {
      grant_or_free(ctx, kInvalidThread);  // releases meta
    } else {
      meta_unlock(ctx);
    }
    waiter_count_.fetch_sub(1, std::memory_order_relaxed);
    monitor_.on_timeout();
    return true;
  }

  /// Meta held, or the release module's owner re-queueing its own
  /// pre-selection. Registers a published, drained, migrated or reclaimed
  /// record with `target` - at the tail, or at the head (`front`) for a
  /// reclaimed pre-selection, which was the oldest candidate - or parks it
  /// on the orphan queue when there is no module (kNone). A distributed-
  /// queue record is linked into the lock-resident cell and registered with
  /// no module: the cell outlives every module swap.
  void adopt(Ctx& ctx, WaiterRecord<P>& w, Scheduler<P>* target,
             bool front = false) {
    if (serves_cell(target)) {
      w.registered_with = nullptr;
      if (front) {
        queue_cell_.push_front(&ctx, w);
      } else {
        queue_cell_.push(&ctx, w);
      }
      return;
    }
    w.registered_with = target;
    if (target == nullptr) {
      orphans_.push_back(w);
    } else if (front) {
      target->enqueue_front(w);
    } else {
      target->enqueue(w);
    }
  }

  /// True for the distributed-queue module: its waiters live in queue_cell_
  /// and the lock runs every queue operation on the cell itself, with the
  /// caller's context (paced link-window waits, checker scheduling points).
  [[nodiscard]] static bool serves_cell(const Scheduler<P>* m) noexcept {
    return m != nullptr && m->kind() == SchedulerKind::kQueue;
  }

  /// Meta held, or the release module's owner in a fast release. The one
  /// drain of the lock-free arrival channel: moves the cell's records, in
  /// arrival order, into the module new arrivals register under (pending
  /// during a configuration delay, else current). With no module - kNone
  /// coroutine waiters, or an arrival that raced a reconfiguration to
  /// kNone - records park on the orphan queue, which the release module
  /// serves FIFO before consulting any scheduler. A no-op while that module
  /// is the distributed queue, which consumes the cell itself: popping then
  /// would steal its linked waiters out of FIFO order. (A current kQueue
  /// module is never outgoing to another kind - install_scheduler hands
  /// its waiters to a FIFO stand-in - so it is the target too.)
  void drain_cell(Ctx& ctx) {
    Scheduler<P>* const target = arrival_target();
    if (queue_cell_.empty() || serves_cell(target)) return;
    while (WaiterRecord<P>* w = queue_cell_.pop(&ctx)) adopt(ctx, *w, target);
  }

  /// Meta held, fast releases waited out. Removes a timed-out record from
  /// wherever it is registered: the scheduler module that actually enqueued
  /// it (which may no longer be the current one after a reconfiguration),
  /// the distributed-queue cell, or the orphan queue.
  void withdraw(Ctx& ctx, WaiterRecord<P>& rec) {
    if (rec.registered_with != nullptr) {
      rec.registered_with->remove(rec);
      rec.registered_with = nullptr;
    } else if (!queue_cell_.remove(&ctx, rec)) {
      orphans_.remove(rec);
    }
  }

  [[nodiscard]] Placement grant_flag_placement(Ctx& ctx) const {
    return opts_.wait_placement == WaitPlacement::kWaiterLocal
               ? Placement::on(P::home_node(ctx))
               : opts_.placement;
  }

  // --------------------------------------------- the waiting engine ------

  /// Phi's lock-only inputs (core/wait.hpp): the monitor's probe and block
  /// counts, the park/unpark trace markers, and the owner's advice.
  [[nodiscard]] WaitTaps taps() noexcept { return {&monitor_, &trace_tag_}; }
  auto advisor(Ctx& ctx) {
    return [this, &ctx](std::uint32_t& probes, Nanos& sleep_ns) {
      if (opts_.advisory) apply_advice(ctx, probes, sleep_ns);
    };
  }

  /// Centralized waiting: TTAS probes of the state word; sleepers register
  /// on the sleeper list and are woken en masse by release.
  WaitResult wait_centralized(Ctx& ctx, const LockAttributes& attrs,
                              Nanos deadline) {
    WaiterRecord<P> rec(domain_, ctx.self(), ctx.priority(),
                        grant_flag_placement(ctx), /*shared=*/false,
                        policy_may_sleep(attrs, opts_.advisory));
    // A barging waiter is a waiter even while it spins: count it for the
    // whole wait so state() can report kIdle (free with waiting threads,
    // Figure 4). The seed counted only the sleep phase, so an all-spin
    // centralized lock under-reported and state() returned kUnlocked.
    struct CountGuard {
      std::atomic<std::uint32_t>& count;
      explicit CountGuard(std::atomic<std::uint32_t>& c) : count(c) {
        count.fetch_add(1, std::memory_order_relaxed);
      }
      ~CountGuard() { count.fetch_sub(1, std::memory_order_relaxed); }
    } count_guard{waiter_count_};
    return wait_rounds<P>(
        ctx, attrs, deadline, /*park_early=*/false,
        [&] {
          return claimed(P::load(ctx, state_)) &&
                 claimed(P::fetch_or(ctx, state_, kStateHeld));
        },
        [&](Nanos sleep_ns) {
          // Register on the sleeper list; release wakes everyone. The
          // claim carries the contended bit (kClaimMark): if the word is
          // held, the mark disables the holder's single-CAS fast unlock
          // BEFORE we register as a sleeper - a fast unlock wakes nobody.
          // (A successful claim sets the bit spuriously on ourselves; our
          // own release then takes the guarded path once and free-publish
          // clears it.)
          meta_lock(ctx);
          if (claimed(P::fetch_or(ctx, state_, kClaimMark))) {
            holders_ = 1;  // freed while we took meta
            meta_unlock(ctx);
            return WaitResult::kGranted;
          }
          sleepers_.push_back(rec);
          meta_unlock(ctx);
          (void)park<P>(ctx, sleep_ns, deadline, taps());
          meta_lock(ctx);
          sleepers_.remove(rec);  // no-op if the releaser already popped us
          meta_unlock(ctx);
          return expired<P>(ctx, deadline) ? WaitResult::kTimedOut
                                           : WaitResult::kAgain;
        },
        taps(), advisor(ctx));
  }

  /// Overrides one waiting round's plan with the owner's advice. Sleep
  /// advice carrying a tenure deadline translates into a single bounded
  /// sleep ending kAdviceSpinMargin before the expected release, followed
  /// by spinning (the paper's speculative lock).
  void apply_advice(Ctx& ctx, std::uint32_t& probes, Nanos& sleep_ns) {
    const std::uint64_t word = P::load(ctx, advice_);
    switch (static_cast<Advice>(word & 3)) {
      case Advice::kSpin:
        probes = probes != 0 ? probes : kAdviceChunk;
        sleep_ns = 0;
        break;
      case Advice::kSleep: {
        probes = 0;
        const Nanos wake_at = word >> 2;
        if (wake_at == 0) {
          sleep_ns = opts_.advice_sleep_slice;  // no deadline: sleep a slice
          break;
        }
        const Nanos now = P::now(ctx);
        if (wake_at > now + kAdviceSpinMargin) {
          sleep_ns = wake_at - now - kAdviceSpinMargin;
        } else {
          probes = kAdviceChunk;  // inside the margin: spin for the grant
          sleep_ns = 0;
        }
        break;
      }
      case Advice::kNone:
        break;
    }
    if (probes == kInfiniteSpins) probes = kAdviceChunk;
  }

  // -------------------------------- configuration-quiescence epoch -------
  // kRealConcurrency only (the simulator has no fast release; all of this
  // is discarded or a no-op there). Protocol: a fast releaser increments
  // its in-flight count then checks the breaker count; a configuration
  // operation increments the breaker count then waits for in-flight
  // releases to drain. Both sides use sequentially consistent RMWs/loads
  // (Dekker), so at least one observes the other: either the releaser
  // stands down onto the guarded path, or the breaker waits it out and
  // then sees all its module mutations. The breaker side (arm_breaker,
  // QuiesceGuard, BreakerToken) sits with the other private types above.

  /// Spins until every in-flight fast release has retired. Meaningful only
  /// while the breaker count is nonzero (else new fast releases start).
  void wait_fast_releases(Ctx& ctx) {
    if constexpr (kRealConcurrency<P>) {
      std::uint32_t streak = 0;
      for (;;) {
        chk_point<P>(ctx, "epoch.check");
        if (fast_releases_inflight_.load(std::memory_order_acquire) == 0) {
          break;
        }
        spin_step<P>(ctx, streak);
      }
    } else {
      (void)ctx;
    }
  }

  /// Is the cached pre-selection still the right grantee under the
  /// module's successor-selection policy (Scheduler::successor_policy)?
  /// kNone modules never reach here - the fast release stands down before
  /// consulting the cache.
  [[nodiscard]] bool next_grant_valid(const WaiterRecord<P>& cached,
                                      SuccessorPolicy policy,
                                      const Scheduler<P>& sched,
                                      ThreadId hint) const noexcept {
    switch (policy) {
      case SuccessorPolicy::kStableHead:
        return true;  // the FIFO head stays the head; arrivals go behind
      case SuccessorPolicy::kHinted:
        return hint == kInvalidThread || cached.tid == hint;
      case SuccessorPolicy::kVersioned:
        // Any queue mutation (a new arrival may outrank the cache, a
        // threshold change may disqualify it) bumps the module version.
        return sched.version() ==
               next_grant_version_.load(std::memory_order_relaxed);
      case SuccessorPolicy::kNone:
        break;
    }
    return false;
  }

  /// The release module's one selection step, shared by the guarded
  /// release, the fast release and its pre-selection refill. Returns the
  /// unlinked first grantee (a reader batch continues through batch_next),
  /// nullptr when nobody is eligible. The distributed queue pops its cell
  /// head, waiting out producer link windows so a linked waiter is never
  /// skipped; every other kind runs the module's select(). Selection
  /// writes no lock-owned scratch: the result travels in the return value
  /// and, for a reader batch, in the records' own links.
  WaiterRecord<P>* select_next(Ctx& ctx, Scheduler<P>& sched, ThreadId hint) {
    chk_select<P>(/*open=*/true);
    return serves_cell(&sched) ? queue_cell_.pop(&ctx) : sched.select(hint);
  }

  /// Pre-selects the grantee for the NEXT release while this releaser
  /// still owns the module - the MCS-style cache the next fast release
  /// publishes with a single store. Version snapshot taken after the
  /// select, so any later mutation invalidates the cache.
  void refill_next_grant(Ctx& ctx, Scheduler<P>& sched) {
    WaiterRecord<P>* const nxt = select_next(ctx, sched, kInvalidThread);
    if (nxt == nullptr) {
      next_grant_.store(nullptr, std::memory_order_relaxed);
      return;
    }
    nxt->registered_with = nullptr;
    next_grant_version_.store(sched.version(), std::memory_order_relaxed);
    next_grant_.store(nxt, std::memory_order_relaxed);
  }

  /// Returns the pre-selected successor, if any, to its queue. Caller must
  /// own the release module with no fast release in flight (a guarded
  /// release path, or a quiesced configuration operation holding meta).
  void reclaim_next_grant(Ctx& ctx) {
    WaiterRecord<P>* const cached =
        next_grant_.exchange(nullptr, std::memory_order_relaxed);
    if (cached != nullptr) {
      adopt(ctx, *cached, scheduler_.get(), /*front=*/true);
    }
  }

  /// `began`: the Dekker gate was passed (the checker's fast-release window
  /// opened), so the matching end-of-window event must be reported.
  bool release_fast_abort(Ctx& ctx, bool began) {
    chk_point<P>(ctx, "fr.retire");
    fast_releases_inflight_.fetch_sub(1, std::memory_order_seq_cst);
    if (began) note(ctx, LockEvent::kFastReleaseEnd);
    return false;
  }

  /// The single-store contended release. Returns false (having touched
  /// nothing but the in-flight count) to route the release through the
  /// guarded path. Exclusivity argument: only the state-word owner runs a
  /// release module, and this path never publishes the word free, so fast
  /// releases are serialized by ownership handoff itself; the Dekker gate
  /// below excludes them from configuration operations.
  [[nodiscard]] bool release_fast(Ctx& ctx, ThreadId hint) {
    if (opts_.execution != Execution::kPassive || rw_capable()) return false;
    chk_point<P>(ctx, "fr.enter");
    fast_releases_inflight_.fetch_add(1, std::memory_order_seq_cst);
    chk_point<P>(ctx, "fr.gate");
    if (quiesce_breakers_.load(std::memory_order_seq_cst) != 0) {
      return release_fast_abort(ctx, /*began=*/false);
    }
    // Quiescent: configuration is locked out until our in-flight count
    // drops; we own the modules by holding the state word.
    note(ctx, LockEvent::kFastReleaseBegin);
    chk_point<P>(ctx, "fr.mod");
    Scheduler<P>* const sched_ptr = scheduler_.get();
    // kNone-policy modules abort to the guarded path: kNone kind frees the
    // word (guarded path handles sleeper wakeup), RW grants batches, custom
    // modules make no validity promises for the pre-selection cache.
    const SuccessorPolicy policy = sched_ptr == nullptr
                                       ? SuccessorPolicy::kNone
                                       : sched_ptr->successor_policy();
    if (policy == SuccessorPolicy::kNone ||
        has_pending_.load(std::memory_order_relaxed) || !orphans_.empty()) {
      return release_fast_abort(ctx, /*began=*/true);
    }
    Scheduler<P>& sched = *sched_ptr;
    drain_cell(ctx);
    chk_point<P>(ctx, "fr.cache");
    WaiterRecord<P>* succ = next_grant_.load(std::memory_order_relaxed);
    if (succ != nullptr && !next_grant_valid(*succ, policy, sched, hint)) {
      // Stale pre-selection (priority landscape or hint changed): put it
      // back at the head of its queue - it was the oldest candidate - and
      // select afresh. (Unreachable for kStableHead policies.)
      next_grant_.store(nullptr, std::memory_order_relaxed);
      adopt(ctx, *succ, &sched, /*front=*/true);
      succ = nullptr;
    }
    if (succ == nullptr) {
      chk_point<P>(ctx, "fr.select");
      succ = select_next(ctx, sched, hint);
      if (succ == nullptr) {
        // Nobody eligible: publishing the word free (and waking barging
        // sleepers) is the guarded path's job.
        return release_fast_abort(ctx, /*began=*/true);
      }
      succ->registered_with = nullptr;
    } else {
      next_grant_.store(nullptr, std::memory_order_relaxed);
    }
    // Pre-select the next grantee while we still own the module.
    chk_point<P>(ctx, "fr.refill");
    refill_next_grant(ctx, sched);
    // Every module mutation is complete. Publish ownership: mirrors first,
    // the grant-flag store last - the one store the new owner's critical
    // section is ordered after. The epilogue below the store touches only
    // the in-flight count (hence a counter, not a flag: it may overlap the
    // new owner's own fast release) and, after retiring it, the coroutine
    // grant-hook delivery.
    chk_point<P>(ctx, "fr.publish");
    holders_ = 1;
    const ThreadId tid = succ->tid;
    const bool may_sleep = succ->may_sleep;
    const typename WaiterRecord<P>::GrantHook hook = succ->grant_hook;
    void* const hook_arg = succ->grant_hook_arg;
    P::store(ctx, owner_, static_cast<std::uint64_t>(tid) + 1);
    monitor_.on_handoff();
    P::store(ctx, succ->granted, 1);
    note(ctx, LockEvent::kGranted, tid);
    if (may_sleep) {
      monitor_.on_wakeup();
      P::unblock(ctx, tid);
    }
    chk_point<P>(ctx, "fr.retire");
    fast_releases_inflight_.fetch_sub(1, std::memory_order_seq_cst);
    note(ctx, LockEvent::kFastReleaseEnd);
    // Coroutine waiter: deliver the grant to its executor, AFTER the
    // in-flight count retires. The granted flag is published above, so a
    // timeout resolution that drains this release (wait_fast_releases with
    // meta held) re-checks the flag, observes the grant, and stands down to
    // consume the - possibly still in-flight - delivery. Firing the hook
    // inside the in-flight window would deadlock an inline executor: the
    // resumed frame's unlock (forced onto the guarded path by the contended
    // bit) blocks on meta while the meta holder spins on the in-flight
    // count. The hook is the last touch of the record - the resumed frame
    // owns it.
    if (hook != nullptr) hook(hook_arg, ctx);
    // Oversubscribed processor: give the grantee a chance to run now
    // rather than after our quantum expires re-contending the lock.
    if (P::oversubscribed(ctx)) P::yield(ctx);
    return true;
  }

  // -------------------------------------------------------- release ------

  void release(Ctx& ctx, ThreadId hint, bool shared) {
    meta_lock(ctx);
    if (shared) {
      if (holders_ == 0) {
        // Release meta before unwinding so the misuse cannot wedge the lock.
        meta_unlock(ctx);
        misuse("unlock_shared without a matching shared hold");
      }
      --holders_;
      if (holders_ != 0) {
        meta_unlock(ctx);
        return;
      }
    } else {
      holders_ = 0;
      writer_held_ = false;
      P::store(ctx, owner_, 0);
    }
    grant_or_free(ctx, hint);  // releases meta
  }

  /// Runs the release module: drains the cell, installs a pending
  /// scheduler if the old one has drained, selects the next grantee (a
  /// writer, or a reader batch), and either hands the lock off or publishes
  /// it as free. Expects meta held; releases it.
  ///
  /// Allocation-free (asserted by release_alloc_test): a reader batch is
  /// chained through its records' batch_next links and the wake list lives
  /// in a fixed stack array. The wake list must be local - once meta is
  /// released another thread may release again concurrently - so overflow
  /// wakes (giant reader batches) are issued while meta is still held:
  /// correct, just a longer guard hold on a path that is rare by
  /// construction.
  void grant_or_free(Ctx& ctx, ThreadId hint) {
    ThreadId wake_buf[kWakeInline];
    std::size_t wake_count = 0;
    // Coroutine waiters granted in this release: their delivery hooks must
    // run after meta_unlock (a hook may resume a frame that re-enters the
    // lock), so they are chained here through the granter-owned batch_next
    // link once the grant loop has read it. Safe to chain before the
    // granted store: a hooked record's lifetime is owned by the suspended
    // frame, which cannot resume - and so cannot free the record - until
    // its hook fires below.
    WaiterRecord<P>* hooked_head = nullptr;
    WaiterRecord<P>** hooked_tail = &hooked_head;
    const auto chain_hook = [&](WaiterRecord<P>* w) {
      if (w->grant_hook == nullptr) return;
      w->batch_next = nullptr;
      *hooked_tail = w;
      hooked_tail = &w->batch_next;
    };
    const auto queue_wake = [&](ThreadId tid) {
      monitor_.on_wakeup();
      if (wake_count < kWakeInline) {
        wake_buf[wake_count++] = tid;
      } else {
        P::unblock(ctx, tid);
      }
    };

    // The guarded path must see every waiter: fold a fast-release
    // pre-selection back into its queue before selecting.
    chk_point<P>(ctx, "gf.reclaim");
    reclaim_next_grant(ctx);
    for (;;) {
      drain_cell(ctx);
      if (scheduler_ != nullptr && scheduler_->empty() &&
          has_pending_.load(std::memory_order_relaxed)) {
        install_pending(ctx);
      }
      // Orphans first, FIFO: waiters drained while no scheduler module was
      // current (reconfigured to kNone mid-arrival) precede any module's
      // choice so they cannot be stranded behind it.
      WaiterRecord<P>* w = orphans_.front();
      if (w != nullptr) {
        orphans_.remove(*w);
      } else if (scheduler_ != nullptr) {
        w = select_next(ctx, *scheduler_, hint);
      }

      if (w == nullptr) {
        // Nobody eligible: publish free and wake sleeping barging waiters.
        P::store(ctx, state_, 0);
        note(ctx, LockEvent::kReleaseFree);
        sleepers_.for_each([&](WaiterRecord<P>& sleeper) {
          sleepers_.remove(sleeper);
          queue_wake(sleeper.tid);
          return true;
        });
        if constexpr (kRealConcurrency<P>) {
          // Mirror of the arrival path's lost-release guard: re-examine the
          // cell's tail with a seq_cst RMW after publishing free. A waiter
          // whose tail-swap raced our drain either sees the free state
          // itself or is seen here (both RMWs sit in the tail's
          // modification order); if seen, re-close the gate and serve it.
          // The re-grab carries the contended bit (kClaimMark): the
          // free-publish above erased the raced waiter's mark, so if a
          // fast-path acquirer steals the word between our store and this
          // RMW, the bit we set here is what routes the thief's release
          // through the full path to drain that waiter - without it a
          // single-CAS fast unlock would strand the record in the cell.
          // During a delay into the distributed queue the cell's records
          // wait for the outgoing module, whose waiters the select above
          // found all ineligible: a re-grab would only loop here with meta
          // held (resolve_timeout and set_priority_threshold restart the
          // release module when that changes).
          chk_point<P>(ctx, "gf.recheck");
          if (queue_cell_.tail.fetch_add(0, std::memory_order_seq_cst) !=
                  nullptr &&
              !(serves_cell(arrival_target()) &&
                !serves_cell(scheduler_.get())) &&
              claimed(P::fetch_or(ctx, state_, kClaimMark))) {
            hint = kInvalidThread;
            continue;
          }
        }
        meta_unlock(ctx);
        break;
      }

      // Direct handoff: the state word stays held. One grant store per
      // record - a writer alone, or a reader batch in selection order. An
      // exclusive grant transfers the state word, and the new owner may run
      // a fast release - selecting from the module without meta - the
      // instant its store lands, so that store is this release's last
      // touch of the module. Each record's batch_next is read before its
      // store, after which the record (on the waiter's stack) may
      // disappear; only captured values are used below it.
      const bool exclusive = !w->shared;
      writer_held_ = exclusive;
      holders_ = 0;
      do {
        WaiterRecord<P>* const next = w->batch_next;
        const ThreadId tid = w->tid;
        const bool may_sleep = w->may_sleep;
        assert(!exclusive || next == nullptr);
        ++holders_;
        if (exclusive) {
          P::store(ctx, owner_, static_cast<std::uint64_t>(tid) + 1);
        }
        w->registered_with = nullptr;
        w->granted_flag_host = true;
        monitor_.on_handoff();
        chain_hook(w);
        P::store(ctx, w->granted, 1);
        note(ctx, LockEvent::kGranted, tid);
        if (may_sleep) queue_wake(tid);
        w = next;
      } while (w != nullptr);
#ifdef RELOCK_CHECK_SEEDED_BUG_1
      // Seeded bug, of the class of the original grant-before-scratch-clear
      // race: the guarded exclusive handoff pre-selects the next grantee
      // AFTER its grant store, so the new owner may already be selecting
      // from the same module in its own fast release when this refill
      // lands.
      if (exclusive && scheduler_ != nullptr) {
        chk_point<P>(ctx, "bug1.window");
        refill_next_grant(ctx, *scheduler_);
      }
#endif
      meta_unlock(ctx);
      break;
    }
    for (std::size_t i = 0; i < wake_count; ++i) {
      P::unblock(ctx, wake_buf[i]);
    }
    // Deliver coroutine grants. Each hook is the granter's last touch of
    // its record: the resumed frame owns it and may free it immediately.
    for (WaiterRecord<P>* w = hooked_head; w != nullptr;) {
      WaiterRecord<P>* const next = w->batch_next;
      w->grant_hook(w->grant_hook_arg, ctx);
      w = next;
    }
  }

  /// Builds the module to install for `kind`: `custom` when the caller
  /// supplied one, else the factory's. A distributed-queue module is always
  /// a façade over the lock-resident queue_cell_ - a user-built one would
  /// carry a cell of its own - because arrivals tail-swap into the cell
  /// without ever dereferencing the module pointer (which a racing
  /// reconfiguration may be retiring).
  [[nodiscard]] std::unique_ptr<Scheduler<P>> make_module(
      SchedulerKind kind, std::unique_ptr<Scheduler<P>> custom = nullptr) {
    if (kind == SchedulerKind::kQueue) {
      return std::make_unique<DistributedQueueScheduler<P>>(&queue_cell_);
    }
    return custom != nullptr ? std::move(custom) : make_scheduler<P>(kind);
  }

  /// Common body of the configure_scheduler overloads: charges the 1R5W
  /// cost, stages the new module, and installs it immediately when no
  /// pre-registered waiters exist.
  void install_scheduler(Ctx& ctx, SchedulerKind kind,
                         std::unique_ptr<Scheduler<P>> fresh) {
    // Checked before the quiescence epoch is broken: misuse() unwinds and
    // must leave nothing armed.
    if ((kind == SchedulerKind::kReaderWriter) != rw_capable()) {
      misuse("RW capability is fixed at construction; cannot switch a lock "
             "between reader-writer and exclusive scheduler kinds");
    }
    // Scheduler swaps retire the outgoing module: quiesce the fast path
    // and reclaim its pre-selection (below, under meta) or the cached
    // record would dangle on a destroyed queue.
    QuiesceGuard quiesce(ctx, *this);
    note(ctx, LockEvent::kConfigMutateBegin);
    monitor_.on_reconfiguration(/*scheduler_change=*/true);
    (void)P::load(ctx, sched_flag_);                    // 1R
    const auto code = static_cast<std::uint64_t>(kind);
    P::store(ctx, sched_reg_, code);                    // W1: registration
    P::store(ctx, sched_acq_, code);                    // W2: acquisition
    P::store(ctx, sched_rel_, code);                    // W3: release
    P::store(ctx, sched_flag_, 1);                      // W4: delay flag on
    meta_lock(ctx);
    reclaim_next_grant(ctx);
    // Lock-free arrivals published before this configuration: drain them
    // now so they land in the outgoing module and are served under the
    // configuration-delay rule, like meta-published arrivals.
    drain_cell(ctx);
    if (serves_cell(scheduler_.get()) && !serves_cell(fresh.get())) {
      // The cell is about to become the incoming kind's arrival channel:
      // move the distributed queue's pre-registered waiters, in order, into
      // a FIFO module that serves as the outgoing one, so they are still
      // granted before anyone who arrives during the delay. Done even for
      // an empty cell: a tail-swap racing the emptiness check below must
      // not find the outgoing module serving the incoming kind's channel.
      auto outgoing = std::make_unique<FcfsScheduler<P>>();
      while (WaiterRecord<P>* w = queue_cell_.pop(&ctx)) {
        adopt(ctx, *w, outgoing.get());
      }
      scheduler_ = std::move(outgoing);
    }
    if (pending_scheduler_ != nullptr &&
        !serves_cell(pending_scheduler_.get())) {
      // Stacked reconfiguration: a previous pending module was never
      // installed. Migrate its registered waiters (to the incoming module,
      // or the orphan queue when switching to kNone) instead of destroying
      // them with it. A replaced distributed-queue module holds none: its
      // waiters stay in the lock-resident cell, and the next release's
      // drain moves them, in order, to whatever module is the target then.
      while (WaiterRecord<P>* w = pending_scheduler_->pop_any()) {
        adopt(ctx, *w, fresh.get());
      }
    }
    pending_scheduler_ = std::move(fresh);
    if (pending_scheduler_ != nullptr) {
      pending_scheduler_->set_rw_preference(opts_.rw_preference);
    }
    pending_kind_.store(kind, std::memory_order_relaxed);
    has_pending_.store(true, std::memory_order_relaxed);
    // New registrations target the incoming module from here on: a new
    // configuration generation for the fairness oracles.
    note(ctx, LockEvent::kSchedulerInstalled);
    const bool immediate = scheduler_ == nullptr || scheduler_->empty();
    if (immediate) install_pending(ctx);                // W5: flag reset
    note(ctx, LockEvent::kConfigMutateEnd);
    meta_unlock(ctx);
  }

  /// Installs the pending scheduler (configuration-delay completion) and
  /// performs the deferred flag-reset write (the 5th W of 1R5W).
  void install_pending(Ctx& ctx) {
    scheduler_ = std::move(pending_scheduler_);
    scheduler_kind_.store(pending_kind_.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    has_pending_.store(false, std::memory_order_relaxed);
    P::store(ctx, sched_flag_, 0);
  }

  // ----------------------------------------------------- bookkeeping -----

  /// Arrival stamp for monitor statistics. Clock elision on real
  /// platforms: with the monitor off, or outside the 1-in-N timing sample,
  /// no clock read happens and 0 marks "not taken". The simulator always
  /// stamps.
  Nanos stamp(Ctx& ctx) {
    if (kRealConcurrency<P> &&
        !(monitor_.enabled() && monitor_.timing_sample())) {
      return 0;
    }
    return P::now(ctx);
  }

  /// Bookkeeping for an uncontended claim of the state word.
  void on_claimed(Ctx& ctx, Nanos t0) {
    if (fast_eligible_) {
      on_acquired_fast(ctx, t0);
    } else {
      on_acquired_exclusive(ctx, /*contended=*/false, t0);
    }
  }

  /// Bookkeeping for a fast-mode claim (fast_eligible_ locks on real
  /// platforms only). The owner word is not written: nothing reads it
  /// unless the lock is recursive, and recursive locks are never
  /// fast-eligible. One monitor-enabled load gates everything else;
  /// acquire_time_ is still cleared when the monitor is off so a later
  /// monitored release cannot pair with a stale stamp.
  void on_acquired_fast(Ctx& ctx, Nanos t0) {
    note_trace(ctx, LockEvent::kAcquireFast, ctx.self());
    if (monitor_.enabled()) {
      monitor_.on_acquire(/*contended=*/false);
      acquire_time_ = t0 != 0 ? P::now(ctx) : 0;
    } else {
      acquire_time_ = 0;
    }
  }

  void on_acquired_exclusive(Ctx& ctx, bool contended, Nanos t0) {
    note_trace(ctx,
               contended ? LockEvent::kAcquireSlow : LockEvent::kAcquireFast,
               ctx.self());
    P::store(ctx, owner_, static_cast<std::uint64_t>(ctx.self()) + 1);
    recursion_depth_ = 0;
    if constexpr (kRealConcurrency<P>) {
      // Clock elision: with the monitor off the timestamps feed nothing;
      // with it on, only the 1-in-N sampled acquisitions (t0 nonzero) pay
      // clock reads. acquire_time_ == 0 tells the release side this hold
      // carries no time sample.
      if (!monitor_.enabled()) {
        acquire_time_ = 0;
        return;
      }
      monitor_.on_acquire(contended);
      if (t0 != 0) {
        acquire_time_ = P::now(ctx);
        if (contended) monitor_.on_wait_complete(acquire_time_ - t0);
      } else {
        acquire_time_ = 0;
      }
    } else {
      acquire_time_ = P::now(ctx);
      monitor_.on_acquire(contended);
      if (contended) monitor_.on_wait_complete(acquire_time_ - t0);
    }
  }

  void on_granted(Ctx& ctx, bool shared, Nanos t0) {
    note_trace(ctx,
               shared ? LockEvent::kAcquireShared : LockEvent::kAcquireSlow,
               ctx.self());
    if constexpr (kRealConcurrency<P>) {
      if (!shared) recursion_depth_ = 0;
      if (!monitor_.enabled()) {
        if (!shared) acquire_time_ = 0;
        return;
      }
      if (shared) {
        monitor_.on_shared_acquire();
      } else {
        monitor_.on_acquire(/*contended=*/true);
      }
      if (t0 != 0) {
        const Nanos now = P::now(ctx);
        if (!shared) acquire_time_ = now;
        monitor_.on_wait_complete(now - t0);
      } else if (!shared) {
        acquire_time_ = 0;
      }
    } else {
      const Nanos now = P::now(ctx);
      if (shared) {
        monitor_.on_shared_acquire();
      } else {
        recursion_depth_ = 0;
        acquire_time_ = now;
        monitor_.on_acquire(/*contended=*/true);
      }
      monitor_.on_wait_complete(now - t0);
    }
  }

  // ------------------------------------------------- reader-writer -------

  bool try_acquire_rw(Ctx& ctx, bool shared) {
    const Nanos t0 = stamp(ctx);
    meta_lock(ctx);
    if (enter_locked(ctx, shared, t0)) return true;
    meta_unlock(ctx);
    return false;
  }

  /// Meta held. Immediate-entry rule: the lock must be compatible *and*
  /// nobody is queued (so waiting writers are not starved by arriving
  /// readers), except under reader preference where readers may join.
  [[nodiscard]] bool rw_can_enter(bool shared) const {
    const bool queue_empty =
        (scheduler_ == nullptr || scheduler_->empty()) &&
        (pending_scheduler_ == nullptr || pending_scheduler_->empty());
    if (shared) {
      const bool compatible = !writer_held_;
      if (opts_.rw_preference == RwPreference::kReaderPref) {
        return compatible;  // readers barge past queued writers
      }
      return compatible && queue_empty;  // do not starve queued writers
    }
    return holders_ == 0 && queue_empty;
  }

  /// Meta held.
  void rw_enter(Ctx& ctx, bool shared) {
    if (shared) {
      ++holders_;
      writer_held_ = false;
    } else {
      holders_ = 1;
      writer_held_ = true;
    }
    if (holders_ == 1) P::store(ctx, state_, 1);
  }

  // -------------------------------------------------- active locks -------

  // Mailbox protocol: 0 = empty; kMailboxShared = shared releases counted
  // in pending_release_count_; >= kMailboxExclusive = one exclusive
  // release, hint inline.
  // An exclusive lock has at most one release in flight (the next release
  // cannot happen before the manager grants this one), so the whole request
  // fits in a single mailbox write - this is what makes active unlocks
  // cheaper for the releasing processor than running the release module.
  static constexpr std::uint64_t kMailboxShared = 1;
  static constexpr std::uint64_t kMailboxExclusive = 2;

  static constexpr std::uint64_t encode_mailbox_hint(ThreadId hint) noexcept {
    return hint == kInvalidThread
               ? kMailboxExclusive
               : kMailboxExclusive + 1 + static_cast<std::uint64_t>(hint);
  }
  static constexpr ThreadId decode_mailbox_hint(std::uint64_t v) noexcept {
    return v == kMailboxExclusive
               ? kInvalidThread
               : static_cast<ThreadId>(v - kMailboxExclusive - 1);
  }

  /// Active locks: hands the release to the manager, or returns false - the
  /// caller runs it inline - when none is serving. The releaser announces
  /// itself on posting_ before it reads serving_, and a stopping manager
  /// clears serving_ before it waits posting_ out (a Dekker handshake, both
  /// sides seq_cst), so every post lands before the manager's last mailbox
  /// load or is not made at all.
  bool try_post_release(Ctx& ctx, ThreadId hint, bool shared) {
    if (opts_.execution != Execution::kActive) return false;
    chk_point<P>(ctx, "ap.announce");
    posting_.fetch_add(1);
    const bool serving = serving_.load();
    if (serving) post_release(ctx, hint, shared);
    posting_.fetch_sub(1);
    return serving;
  }

  void post_release(Ctx& ctx, ThreadId hint, bool shared) {
    if (!shared) {
      P::store(ctx, mailbox_, encode_mailbox_hint(hint));
    } else {
      // Readers may release concurrently, and every shared release is the
      // same request: count it, then ring.
      pending_release_count_.fetch_add(1);
      P::store(ctx, mailbox_, kMailboxShared);
    }
    if (!opts_.active_polling) {
      const ThreadId mgr = manager_tid_.load(std::memory_order_relaxed);
      if (mgr != kInvalidThread) P::unblock(ctx, mgr);
    }
  }

  /// Manager only, after clearing the mailbox: runs one shared release per
  /// posted count. The count is taken with an RMW, which is ordered with
  /// every reader's increment: either it takes a racing reader's count, or
  /// that reader's ring lands after the mailbox clear and is seen next.
  void drain_releases(Ctx& ctx) {
    while (std::uint32_t n = pending_release_count_.exchange(0)) {
      for (; n != 0; --n) release(ctx, kInvalidThread, /*shared=*/true);
    }
  }

  // ------------------------------------------------------- members -------

  /// Probes per advisory round before re-polling the owner's advice.
  static constexpr std::uint32_t kAdviceChunk = 16;
  /// How long before the owner's announced release waiters resume spinning.
  static constexpr Nanos kAdviceSpinMargin = 60'000;

  /// Release-path wake list capacity; overflow wakes are issued under meta.
  static constexpr std::size_t kWakeInline = 16;

  Domain& domain_;
  Options opts_;
  /// Static half of the fast-mode gate, fixed at construction: true for
  /// configurations whose uncontended acquire/release touch nothing the
  /// bypassed machinery maintains (exclusive + passive + non-recursive +
  /// non-advisory). The dynamic half is the kStateContended bit.
  const bool fast_eligible_;

  // Simulated/atomic words (object + configuration state, Figure 5).
  typename P::Word meta_;         ///< TAS guard for internal structures
  typename P::Word state_;        ///< bit 0 held; bit 1 full mode (kReal)
  typename P::Word owner_;        ///< exclusive owner tid+1, 0 = none
  typename P::Word advice_;       ///< Advice published by the owner
  typename P::Word config_word_;  ///< waiting-policy version (1R1W proxy)
  typename P::Word sched_reg_;    ///< scheduler submodule: registration
  typename P::Word sched_acq_;    ///< scheduler submodule: acquisition
  typename P::Word sched_rel_;    ///< scheduler submodule: release
  typename P::Word sched_flag_;   ///< configuration-delay flag
  typename P::Word registry_;     ///< last registrant tid+1
  typename P::Word possess_word_; ///< attribute possession bits
  typename P::Word mailbox_;      ///< active-lock doorbell

  /// Lock-wide waiting-policy attributes (semantic values, host side).
  AttrSlot attrs_;
  std::atomic<std::uint64_t> config_version_{0};

  // Scheduler modules (guarded by meta except the atomic flags).
  std::unique_ptr<Scheduler<P>> scheduler_;
  std::unique_ptr<Scheduler<P>> pending_scheduler_;
  std::atomic<SchedulerKind> scheduler_kind_;
  std::atomic<SchedulerKind> pending_kind_{SchedulerKind::kNone};
  std::atomic<bool> has_pending_{false};
  /// Advisory mirror of the last set_priority_threshold value (see
  /// priority_threshold()).
  std::atomic<Priority> threshold_mirror_{kDefaultPriority};
  /// The lock-free arrival channel (kRealConcurrency: every queued kind's
  /// arrivals tail-swap in here) and the shared half of the distributed
  /// (kQueue) waiter queue. Lock-resident - not module-resident - so
  /// arrivals swap into stable storage no matter how configuration
  /// changes; every kQueue façade installed on this lock serves this one
  /// cell. Host atomics, so the simulator's word placement is untouched.
  WaitQueueCell<P> queue_cell_;

  // Holder state (guarded by meta on slow paths; fast path uses state_).
  std::uint32_t holders_ = 0;   ///< 0 free, 1 exclusive, n readers
  bool writer_held_ = false;    ///< RW mode only

  WaiterQueue<WaiterRecord<P>> sleepers_;  ///< centralized sleepers (meta)
  WaiterQueue<WaiterRecord<P>> orphans_;   ///< drained, no module (meta)

  // Configuration-quiescence epoch (kRealConcurrency fast release). Host-
  // side atomics so the simulator's word placement is untouched.
  std::atomic<std::uint32_t> quiesce_breakers_{0};
  std::atomic<std::uint32_t> fast_releases_inflight_{0};
  /// Pre-selected grantee for the next release (owned by the module owner;
  /// off every queue, registered_with == nullptr while cached).
  std::atomic<WaiterRecord<P>*> next_grant_{nullptr};
  /// Scheduler version at pre-selection time (priority-kind validation).
  std::atomic<std::uint64_t> next_grant_version_{0};

  // Owner-only bookkeeping.
  std::uint32_t recursion_depth_ = 0;
  Nanos acquire_time_ = 0;

  // Per-thread waiting-policy overrides: lazily allocated flat slot array
  // indexed by ThreadId, written under meta, read lock-free.
  /// Current + retired slot arrays (meta). Retired arrays stay alive for
  /// the lock's lifetime: a reader may still hold their pointer.
  std::vector<std::unique_ptr<AttrSlotArray>> attr_slot_storage_;
  std::atomic<AttrSlotArray*> attr_slots_{nullptr};  ///< lock-free view
  std::uint32_t attr_override_count_ = 0;            ///< valid slots (meta)
  std::atomic<bool> has_thread_attrs_{false};

  // Active-lock machinery.
  std::atomic<std::uint32_t> pending_release_count_{0};  ///< shared posts
  std::atomic<ThreadId> manager_tid_{kInvalidThread};
  std::atomic<bool> serving_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint32_t> posting_{0};  ///< releasers inside a post

  std::atomic<std::uint32_t> waiter_count_{0};
  LockMonitor monitor_;
  /// relock-trace identity; empty (and size-free) without RELOCK_TRACE.
  [[no_unique_address]] TraceTag trace_tag_;
};

}  // namespace relock
