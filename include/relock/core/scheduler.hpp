// The lock scheduling component Gamma = (registration, acquisition,
// release) (paper section 3.1). A Scheduler owns the queue of registered
// waiters (registration), decides their eligibility (acquisition), and
// selects who is granted the lock on release (release). Selection hands
// back the grantee itself; the only storage a grant batch needs is the
// records' own batch_next links, so selecting writes nothing but the
// module's queue and the grantees' records.
//
// Schedulers are plain single-threaded data structures: the owning lock
// calls a module only from the thread that currently owns its release
// module - a meta-guard holder, or a state-word owner running the fast
// release with configuration quiesced (ConfigurableLock, "the
// configuration-quiescence epoch") - so two calls never overlap. The one
// concurrent structure is the distributed queue's WaitQueueCell, which
// lock-free arrivals push into directly.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

#include "relock/core/attributes.hpp"
#include "relock/core/waiter.hpp"
#include "relock/platform/chk_hooks.hpp"
#include "relock/platform/platform.hpp"

namespace relock {

/// How a module's pre-selected successor — the lock's single-store
/// fast-release cache — can go stale. The lock's release path keys every
/// cache decision off this trait instead of enumerating scheduler kinds,
/// so centralized and distributed modules share one release path.
enum class SuccessorPolicy : std::uint8_t {
  /// No single-successor pre-selection: grants are batches (reader-writer)
  /// or the module makes no validity promises (custom). The single-store
  /// fast release is disabled.
  kNone,
  /// The head of line cannot be displaced by later mutations: arrivals go
  /// behind it and a withdrawal of the cached record itself is resolved by
  /// the timeout path clearing the cache. The cache is always valid
  /// (FCFS, distributed queue).
  kStableHead,
  /// Any structural mutation may displace the cached successor (a new
  /// arrival may outrank it, a threshold change may disqualify it):
  /// revalidate against the module's version counter.
  kVersioned,
  /// Valid for hintless releases, or when the cache already matches the
  /// hint; a differently-hinted release must consult the module (handoff).
  kHinted,
};

template <Platform P>
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  [[nodiscard]] virtual SchedulerKind kind() const noexcept = 0;

  /// Staleness contract for the lock's grant pre-selection cache. kNone
  /// (the default) opts the module out of the single-store fast release.
  [[nodiscard]] virtual SuccessorPolicy successor_policy() const noexcept {
    return SuccessorPolicy::kNone;
  }

  /// Registration: logs a waiter that must wait.
  virtual void enqueue(WaiterRecord<P>& w) = 0;

  /// Re-registers a waiter at the *head* of the grant order. Used by the
  /// lock to return a pre-dequeued successor (the fast-release cache) to
  /// the module without losing its position: the cached record was the
  /// oldest selection candidate at the time it was cached. Modules without
  /// a positional queue may fall back to a plain enqueue.
  virtual void enqueue_front(WaiterRecord<P>& w) { enqueue(w); }

  /// Withdraws a waiter (timeout / abandoned conditional acquisition).
  virtual void remove(WaiterRecord<P>& w) = 0;

  /// Release: selects and unlinks the next grantee. `hint` is the handoff
  /// target (kInvalidThread = none). Returns nullptr when nobody is
  /// eligible, even if waiters exist (e.g. all below a priority
  /// threshold). A reader batch comes back as its first record with the
  /// rest chained through WaiterRecord::batch_next; any other grantee's
  /// batch_next is null.
  [[nodiscard]] virtual WaiterRecord<P>* select(ThreadId hint) = 0;

  [[nodiscard]] virtual bool empty() const noexcept = 0;

  /// Unlinks and returns any one registered waiter (nullptr when empty).
  /// The lock uses this to migrate still-queued waiters when a pending
  /// scheduler module is replaced before it was installed (stacked
  /// reconfiguration); records left on the replaced module would dangle.
  [[nodiscard]] virtual WaiterRecord<P>* pop_any() noexcept = 0;

  /// Structural version: incremented on every mutation that can change the
  /// outcome of a future select() — enqueues, removals, selections, and
  /// parameter changes. The lock's fast-release path snapshots it when it
  /// pre-computes a successor and re-validates before publishing ownership
  /// (stale cache => fall back to the guarded release module). Relaxed
  /// atomic: cross-thread ordering is provided by the lock's quiescence
  /// protocol, not by this counter.
  [[nodiscard]] std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_relaxed);
  }

  // Priority-threshold parameters (no-ops for other kinds).
  virtual void set_threshold(Priority) {}

  // Reader-writer parameters (no-ops for other kinds).
  virtual void set_rw_preference(RwPreference) {}

 protected:
  void bump_version() noexcept {
    version_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> version_{0};
};

/// Common base of the queue-backed scheduler modules: owns the intrusive
/// waiter queue and implements the registration-side operations (with
/// version bumps) once. Concrete modules supply kind() and select().
template <Platform P>
class QueuedScheduler : public Scheduler<P> {
 public:
  void enqueue(WaiterRecord<P>& w) override {
    queue_.push_back(w);
    this->bump_version();
  }
  void enqueue_front(WaiterRecord<P>& w) override {
    queue_.push_front(w);
    this->bump_version();
  }
  void remove(WaiterRecord<P>& w) override {
    queue_.remove(w);
    this->bump_version();
  }
  [[nodiscard]] bool empty() const noexcept override { return queue_.empty(); }
  [[nodiscard]] WaiterRecord<P>* pop_any() noexcept override {
    WaiterRecord<P>* w = queue_.front();
    if (w != nullptr) {
      queue_.remove(*w);
      this->bump_version();
    }
    return w;
  }

 protected:
  /// Unlinks `w` as a selection result (selection helper). A checker
  /// scheduling point: the caller must own the lock's open selection
  /// session (chk_select).
  WaiterRecord<P>* take(WaiterRecord<P>& w) {
    chk_select<P>(/*open=*/false);
    queue_.remove(w);
    this->bump_version();
    return &w;
  }

  WaiterQueue<WaiterRecord<P>> queue_;
};

/// FCFS: strict FIFO grant order. The most common multiprocessor lock
/// scheduler; fair but oblivious to application structure.
template <Platform P>
class FcfsScheduler final : public QueuedScheduler<P> {
 public:
  [[nodiscard]] SchedulerKind kind() const noexcept override {
    return SchedulerKind::kFcfs;
  }
  [[nodiscard]] SuccessorPolicy successor_policy() const noexcept override {
    return SuccessorPolicy::kStableHead;  // the FIFO head stays the head
  }
  WaiterRecord<P>* select(ThreadId /*hint*/) override {
    WaiterRecord<P>* const w = this->queue_.front();
    return w != nullptr ? this->take(*w) : nullptr;
  }
};

/// Priority queue: grants the waiter with the highest priority (FIFO among
/// equals). Inherently unfair; useful when some threads' progress matters
/// more (paper section 4.3.1). Selection is a linear scan - queue lengths
/// are bounded by thread counts and the scan runs in the release module.
template <Platform P>
class PriorityQueueScheduler final : public QueuedScheduler<P> {
 public:
  [[nodiscard]] SchedulerKind kind() const noexcept override {
    return SchedulerKind::kPriorityQueue;
  }
  [[nodiscard]] SuccessorPolicy successor_policy() const noexcept override {
    return SuccessorPolicy::kVersioned;  // a new arrival may outrank the cache
  }
  WaiterRecord<P>* select(ThreadId /*hint*/) override {
    WaiterRecord<P>* const best = best_waiter();
    return best != nullptr ? this->take(*best) : nullptr;
  }

 private:
  [[nodiscard]] WaiterRecord<P>* best_waiter() const noexcept {
    WaiterRecord<P>* best = nullptr;
    this->queue_.for_each([&](WaiterRecord<P>& w) {
      if (best == nullptr || w.priority > best->priority) best = &w;
      return true;
    });
    return best;
  }
};

/// Priority threshold: the implementation the paper's client-server
/// experiment uses (section 4.3.1, "second implementation"): the lock
/// carries a threshold priority; only waiters with priority >= threshold
/// are eligible, FCFS among the eligible. Raising the threshold dynamically
/// makes low-priority clients ineligible so the server is served first.
template <Platform P>
class PriorityThresholdScheduler final : public QueuedScheduler<P> {
 public:
  [[nodiscard]] SchedulerKind kind() const noexcept override {
    return SchedulerKind::kPriorityThreshold;
  }
  [[nodiscard]] SuccessorPolicy successor_policy() const noexcept override {
    return SuccessorPolicy::kVersioned;  // a threshold change may disqualify
  }
  WaiterRecord<P>* select(ThreadId /*hint*/) override {
    // No eligible waiter: grant nobody; the lock is released as free and
    // ineligible waiters keep waiting for the threshold to drop.
    WaiterRecord<P>* const chosen = first_eligible();
    return chosen != nullptr ? this->take(*chosen) : nullptr;
  }
  void set_threshold(Priority p) override {
    threshold_ = p;
    this->bump_version();
  }

 private:
  [[nodiscard]] WaiterRecord<P>* first_eligible() const noexcept {
    WaiterRecord<P>* chosen = nullptr;
    this->queue_.for_each([&](WaiterRecord<P>& w) {
      if (w.priority >= threshold_) {
        chosen = &w;
        return false;  // FCFS among eligible: first hit wins
      }
      return true;
    });
    return chosen;
  }

  Priority threshold_ = kDefaultPriority;
};

/// Handoff: the releaser names the next owner (paper section 4.3.1). The
/// critical section is handed directly to the hinted thread if it is
/// waiting; otherwise falls back to FCFS. Unfair and application-specific
/// by design.
template <Platform P>
class HandoffScheduler final : public QueuedScheduler<P> {
 public:
  [[nodiscard]] SchedulerKind kind() const noexcept override {
    return SchedulerKind::kHandoff;
  }
  [[nodiscard]] SuccessorPolicy successor_policy() const noexcept override {
    return SuccessorPolicy::kHinted;
  }
  WaiterRecord<P>* select(ThreadId hint) override {
    WaiterRecord<P>* const chosen = choose(hint);
    return chosen != nullptr ? this->take(*chosen) : nullptr;
  }

 private:
  [[nodiscard]] WaiterRecord<P>* choose(ThreadId hint) const noexcept {
    WaiterRecord<P>* chosen = nullptr;
    if (hint != kInvalidThread) {
      this->queue_.for_each([&](WaiterRecord<P>& w) {
        if (w.tid == hint) {
          chosen = &w;
          return false;
        }
        return true;
      });
    }
    if (chosen == nullptr) chosen = this->queue_.front();  // fallback: FCFS
    return chosen;
  }
};

/// Reader-writer: allows multiple readers inside the critical section
/// (paper section 4.3.3). Grant batches: a single writer, or a batch of
/// readers chosen according to the configured preference.
template <Platform P>
class ReaderWriterScheduler final : public QueuedScheduler<P> {
 public:
  explicit ReaderWriterScheduler(RwPreference pref = RwPreference::kFifo)
      : pref_(pref) {}

  [[nodiscard]] SchedulerKind kind() const noexcept override {
    return SchedulerKind::kReaderWriter;
  }

  WaiterRecord<P>* select(ThreadId /*hint*/) override {
    // The batch is chained in selection order through the granter-owned
    // batch_next link, so a batch of any size needs no storage of its own.
    WaiterRecord<P>* first = nullptr;
    WaiterRecord<P>** link = &first;
    const auto grant = [&](WaiterRecord<P>& w) {
      *link = this->take(w);
      w.batch_next = nullptr;
      link = &w.batch_next;
    };
    if (this->queue_.empty()) return nullptr;
    switch (pref_) {
      case RwPreference::kFifo:
        // Head decides: a writer goes alone; a reader takes every reader up
        // to the first writer.
        if (!this->queue_.front()->shared) {
          grant(*this->queue_.front());
          break;
        }
        this->queue_.for_each([&](WaiterRecord<P>& w) {
          if (!w.shared) return false;
          grant(w);
          return true;
        });
        break;
      case RwPreference::kReaderPref:
        this->queue_.for_each([&](WaiterRecord<P>& w) {
          if (w.shared) grant(w);
          return true;
        });
        if (first == nullptr) grant(*this->queue_.front());
        break;
      case RwPreference::kWriterPref: {
        WaiterRecord<P>* writer = nullptr;
        this->queue_.for_each([&](WaiterRecord<P>& w) {
          if (!w.shared) {
            writer = &w;
            return false;
          }
          return true;
        });
        if (writer != nullptr) {
          grant(*writer);
        } else {
          this->queue_.for_each([&](WaiterRecord<P>& w) {
            grant(w);
            return true;
          });
        }
        break;
      }
    }
    return first;
  }

  void set_rw_preference(RwPreference p) override {
    pref_ = p;
    this->bump_version();
  }

 private:
  RwPreference pref_;
};

/// Distributed FIFO (SchedulerKind::kQueue): the MCS-family queue-node
/// scheduler. Registration is a tail-swap into a WaitQueueCell - each
/// waiter's queue node is inline in its own WaiterRecord (qnext), so a
/// waiting thread spins on its record-local grant flag and the only
/// shared-word traffic per acquisition is the one tail exchange; release
/// hands off with a single store to the successor's node.
///
/// A thin module: every Scheduler method forwards to the cell, which holds
/// the queue's only implementation. The interface carries no context, so
/// these calls run the cell's operations without scheduling points or
/// paced waits - exact wherever producers and the consumer are serialized
/// by one guard. The lock itself drives the cell directly with the
/// caller's context (paced link-window waits) and uses this module only as
/// its kind and emptiness view.
///
/// By default the module owns its cell (standalone use); the lock builds
/// it over the lock-resident cell instead so the cell's identity survives
/// configure_scheduler round trips.
template <Platform P>
class DistributedQueueScheduler final : public Scheduler<P> {
 public:
  using Rec = WaiterRecord<P>;
  using Cell = WaitQueueCell<P>;

  DistributedQueueScheduler() : cell_(&owned_) {}
  explicit DistributedQueueScheduler(Cell* cell) : cell_(cell) {}

  [[nodiscard]] SchedulerKind kind() const noexcept override {
    return SchedulerKind::kQueue;
  }
  [[nodiscard]] SuccessorPolicy successor_policy() const noexcept override {
    return SuccessorPolicy::kStableHead;  // FIFO: the queue head stays put
  }

  void enqueue(Rec& w) override {
    cell_->push(nullptr, w);
    this->bump_version();
  }
  void enqueue_front(Rec& w) override {
    cell_->push_front(nullptr, w);
    this->bump_version();
  }
  void remove(Rec& w) override {
    if (cell_->remove(nullptr, w)) this->bump_version();
  }
  Rec* select(ThreadId /*hint*/) override { return pop_any(); }

  [[nodiscard]] bool empty() const noexcept override {
    return cell_->empty();
  }

  [[nodiscard]] Rec* pop_any() noexcept override {
    Rec* const w = cell_->pop(nullptr);
    if (w != nullptr) this->bump_version();
    return w;
  }

 private:
  Cell owned_;
  Cell* cell_;
};

/// Factory for dynamic scheduler reconfiguration.
template <Platform P>
std::unique_ptr<Scheduler<P>> make_scheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFcfs:
      return std::make_unique<FcfsScheduler<P>>();
    case SchedulerKind::kPriorityQueue:
      return std::make_unique<PriorityQueueScheduler<P>>();
    case SchedulerKind::kPriorityThreshold:
      return std::make_unique<PriorityThresholdScheduler<P>>();
    case SchedulerKind::kHandoff:
      return std::make_unique<HandoffScheduler<P>>();
    case SchedulerKind::kReaderWriter:
      return std::make_unique<ReaderWriterScheduler<P>>();
    case SchedulerKind::kQueue:
      return std::make_unique<DistributedQueueScheduler<P>>();
    case SchedulerKind::kNone:
      break;
    case SchedulerKind::kCustom:
      assert(false && "custom schedulers are installed by instance, "
                      "not by kind");
      break;
  }
  return nullptr;  // centralized barging: no queue at all
}

}  // namespace relock
