// Two-phase-locking transaction driver over LockTable: a TxnLockSet
// tracks one transaction's growing/shrinking phases and applies a
// pluggable deadlock policy at each acquisition. Policies follow the
// classical taxonomy (avoidance by ordering, no-wait, wait-die, plain
// timeout) - all built on the table's try/timed acquisition paths, no
// waits-for graph. The policy decides who ABORTS; safety (mutual
// exclusion, misuse detection) is entirely the table's.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "relock/platform/cacheline.hpp"
#include "relock/table/lock_table.hpp"

namespace relock::table {

enum class AccessMode : std::uint8_t { kRead, kWrite };

struct TxnOp {
  std::uint64_t key = 0;
  AccessMode mode = AccessMode::kRead;
};

enum class DeadlockPolicy : std::uint8_t {
  /// Deadlock avoidance by discipline: keys must be acquired in ascending
  /// order (enforced - out-of-order acquisition throws LockUsageError).
  /// Acquisitions block unboundedly; with a global order no cycle exists.
  kOrdered,
  /// Never wait: a failed try_lock aborts the transaction immediately.
  kNoWait,
  /// Wait-die (Rosenkrantz et al.): an older transaction (smaller
  /// timestamp) may wait for a younger one; a younger transaction
  /// requesting a lock an older transaction holds or waits for dies at
  /// once. Needs a WaitDieStamps board to learn holder ages.
  kWaitDie,
  /// Bounded waiting: lock_for(wait_timeout); expiry aborts. Resolves
  /// cycles probabilistically without any holder bookkeeping.
  kTimeout,
};

[[nodiscard]] constexpr const char* to_string(DeadlockPolicy p) noexcept {
  switch (p) {
    case DeadlockPolicy::kOrdered: return "ordered";
    case DeadlockPolicy::kNoWait: return "nowait";
    case DeadlockPolicy::kWaitDie: return "waitdie";
    case DeadlockPolicy::kTimeout: return "timeout";
  }
  return "?";
}

/// Advisory who-wants-what board for wait-die. Every TxnLockSet that uses
/// the board joins it as one of at most kMaxMembers members; a member
/// publishes its current timestamp in its own cache line and sets its bit
/// in a key's slot BEFORE it tries the key - reads and writes alike - and
/// clears it when it gives the key up. A slot is therefore the exact set
/// of members holding or waiting for the keys that hash to it: a collision
/// can only add members (an extra death), never hide one. The board stays
/// advisory - the table still serializes everything.
class WaitDieStamps {
 public:
  static constexpr unsigned kMaxMembers = 64;

  explicit WaitDieStamps(std::size_t size = 4096)
      : mask_(std::bit_ceil(std::max<std::size_t>(size, 2)) - 1),
        slots_(mask_ + 1) {}

  /// Claims a free member index; throws LockUsageError when all
  /// kMaxMembers are taken.
  [[nodiscard]] unsigned join() {
    std::uint64_t taken = members_.load(std::memory_order_relaxed);
    for (;;) {
      if (taken == ~std::uint64_t{0}) {
        throw LockUsageError("WaitDieStamps: more than 64 members");
      }
      const unsigned m = static_cast<unsigned>(std::countr_one(taken));
      if (members_.compare_exchange_weak(taken, taken | bit(m),
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
        return m;
      }
    }
  }
  void leave(unsigned member) noexcept {
    stamps_[member]->store(0, std::memory_order_relaxed);
    members_.fetch_and(~bit(member), std::memory_order_release);
  }

  /// The member's current timestamp; 0 = none (its bits are ignored).
  void set_timestamp(unsigned member, std::uint64_t ts) noexcept {
    stamps_[member]->store(ts, std::memory_order_release);
  }
  /// Marks `member` interested in `key`; returns false when its bit in
  /// the slot was already set (another of its keys shares the slot).
  /// Slot accesses are seq_cst: of two members that each announce and
  /// then read the slot, at least one sees the other.
  bool announce(std::uint64_t key, unsigned member) noexcept {
    return (slots_[slot(key)].fetch_or(bit(member)) & bit(member)) == 0;
  }
  void retract(std::uint64_t key, unsigned member) noexcept {
    slots_[slot(key)].fetch_and(~bit(member));
  }

  /// Oldest timestamp among the members holding or waiting for `key`
  /// (or a key sharing its slot); 0 = no one.
  [[nodiscard]] std::uint64_t holder(std::uint64_t key) const noexcept {
    return oldest(slots_[slot(key)].load());
  }
  /// As holder(), leaving `member` itself out.
  [[nodiscard]] std::uint64_t oldest_rival(std::uint64_t key,
                                           unsigned member) const noexcept {
    return oldest(slots_[slot(key)].load() & ~bit(member));
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t bit(unsigned m) noexcept {
    return std::uint64_t{1} << m;
  }
  [[nodiscard]] std::size_t slot(std::uint64_t key) const noexcept {
    key *= 0x9e3779b97f4a7c15ull;
    return static_cast<std::size_t>(key >> 32) & mask_;
  }
  [[nodiscard]] std::uint64_t oldest(std::uint64_t set) const noexcept {
    std::uint64_t best = 0;
    for (; set != 0; set &= set - 1) {
      const std::uint64_t ts =
          stamps_[static_cast<unsigned>(std::countr_zero(set))]->load(
              std::memory_order_acquire);
      if (ts != 0 && (best == 0 || ts < best)) best = ts;
    }
    return best;
  }

  std::size_t mask_;
  std::vector<std::atomic<std::uint64_t>> slots_;
  std::atomic<std::uint64_t> members_{0};
  /// Padded: every begin() writes one, every contended acquire reads them.
  std::array<CachePadded<std::atomic<std::uint64_t>>, kMaxMembers> stamps_;
};

/// One transaction's lock set under strict 2PL. Reusable: begin() opens a
/// new growing phase, release_all() shrinks and closes it. acquire()
/// returning false means the POLICY chose this transaction as a victim -
/// the caller must release_all() and (typically) retry with the same
/// timestamp after a backoff. A lock set with a board is a member of it
/// for its whole life, so it can be neither copied nor moved.
template <Platform P>
class TxnLockSet {
 public:
  using Table = LockTable<P>;
  using Ctx = typename P::Context;
  using Key = typename Table::Key;

  struct Config {
    DeadlockPolicy policy = DeadlockPolicy::kOrdered;
    /// Waiting bound for kTimeout and for the older side of kWaitDie.
    Nanos wait_timeout = 2'000'000;  // 2 ms
    /// Required for kWaitDie; unused otherwise.
    WaitDieStamps* stamps = nullptr;
  };

  TxnLockSet(Table& table, Config cfg) : table_(table), cfg_(cfg) {
    if (cfg_.policy == DeadlockPolicy::kWaitDie && cfg_.stamps == nullptr) {
      throw LockUsageError("TxnLockSet: kWaitDie needs a WaitDieStamps");
    }
    if (cfg_.stamps != nullptr) member_ = cfg_.stamps->join();
    held_.reserve(16);
  }
  TxnLockSet(const TxnLockSet&) = delete;
  TxnLockSet& operator=(const TxnLockSet&) = delete;
  ~TxnLockSet() {
    if (cfg_.stamps == nullptr) return;
    for (const Held& h : held_) cfg_.stamps->retract(h.key, member_);
    cfg_.stamps->leave(member_);
  }

  /// Opens the growing phase. `ts` orders transactions for wait-die
  /// (smaller = older); a retrying victim keeps its original ts so it
  /// ages into a survivor. Wait-die needs ts > 0: 0 is the board's "no
  /// one", so a ts-0 transaction would be invisible and could never die.
  void begin(std::uint64_t ts) {
    if (!held_.empty()) {
      throw LockUsageError("TxnLockSet: begin with locks still held");
    }
    if (ts == 0 && cfg_.policy == DeadlockPolicy::kWaitDie) {
      throw LockUsageError("TxnLockSet: kWaitDie needs a timestamp > 0");
    }
    ts_ = ts;
    shrinking_ = false;
    if (cfg_.stamps != nullptr) cfg_.stamps->set_timestamp(member_, ts);
  }

  /// Acquires `key` for `mode`. Idempotent for a mode already covered
  /// (re-read of anything, re-write of a write). Returns false when the
  /// deadlock policy aborts this transaction. Throws LockUsageError on
  /// 2PL violations: acquiring after release_all (until the next begin),
  /// upgrading a held read to a write, or - under kOrdered - acquiring
  /// out of key order.
  bool acquire(Ctx& ctx, Key key, AccessMode mode) {
    if (shrinking_) {
      throw LockUsageError(
          "TxnLockSet: acquire after release_all violates 2PL");
    }
    // A table without a reader-writer configuration serializes everything;
    // treat reads as writes so upgrade rules stay trivially consistent.
    if (!table_.rw_capable()) mode = AccessMode::kWrite;
    for (const Held& h : held_) {
      if (h.key != key) continue;
      if (h.mode == AccessMode::kWrite || mode == AccessMode::kRead) {
        return true;
      }
      throw LockUsageError(
          "TxnLockSet: read->write upgrade of a held key; declare kWrite "
          "up front");
    }
    if (cfg_.policy == DeadlockPolicy::kOrdered && !held_.empty() &&
        key < held_.back().key) {
      throw LockUsageError(
          "TxnLockSet: kOrdered requires ascending key order");
    }
    // Announce interest before acquiring, so an older requester that
    // arrives while this one waits sees it too. The bit is cleared on
    // death unless another held key already set it.
    const bool announced =
        cfg_.stamps != nullptr && cfg_.stamps->announce(key, member_);
    if (!acquire_with_policy(ctx, key, mode)) {
      if (announced) cfg_.stamps->retract(key, member_);
      return false;
    }
    held_.push_back({key, mode});
    return true;
  }

  /// Shrinking phase: releases everything in reverse acquisition order
  /// and closes the transaction (strict 2PL - no early releases).
  void release_all(Ctx& ctx) {
    shrinking_ = true;
    for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
      if (cfg_.stamps != nullptr) cfg_.stamps->retract(it->key, member_);
      if (it->mode == AccessMode::kRead) {
        table_.unlock_shared(ctx, it->key);
      } else {
        table_.unlock(ctx, it->key);
      }
    }
    held_.clear();
  }

  [[nodiscard]] std::size_t held_count() const noexcept {
    return held_.size();
  }
  [[nodiscard]] std::uint64_t timestamp() const noexcept { return ts_; }

 private:
  struct Held {
    Key key;
    AccessMode mode;
  };

  bool acquire_with_policy(Ctx& ctx, Key key, AccessMode mode) {
    const bool shared = mode == AccessMode::kRead;
    switch (cfg_.policy) {
      case DeadlockPolicy::kOrdered:
        return shared ? table_.lock_shared(ctx, key) : table_.lock(ctx, key);
      case DeadlockPolicy::kNoWait:
        return shared ? table_.try_lock_shared(ctx, key)
                      : table_.try_lock(ctx, key);
      case DeadlockPolicy::kTimeout:
        return shared ? table_.lock_shared_for(ctx, key, cfg_.wait_timeout)
                      : table_.lock_for(ctx, key, cfg_.wait_timeout);
      case DeadlockPolicy::kWaitDie: {
        // The board lists every holder and waiter, so waiting only ever
        // points from older to younger and no cycle can form. The slice
        // bound is a safety net for what the board cannot see - a holder
        // that is not a member (a raw table user, a lock set on another
        // board) - and for a bit read in a race: after kWaitSlices timed
        // slices without the lock the waiter dies. The caller retries with
        // its ORIGINAL timestamp, so seniority (and wait-die's starvation
        // freedom) is preserved across the abort.
        constexpr int kWaitSlices = 16;
        for (int slice = 0; slice < kWaitSlices; ++slice) {
          const bool got = shared ? table_.try_lock_shared(ctx, key)
                                  : table_.try_lock(ctx, key);
          if (got) return true;
          const std::uint64_t rival = cfg_.stamps->oldest_rival(key, member_);
          if (rival != 0 && rival < ts_) return false;  // younger: die
          // Older than every other holder and waiter: wait a bounded
          // slice, then re-evaluate - an older member may have announced
          // meanwhile.
          if (shared ? table_.lock_shared_for(ctx, key, cfg_.wait_timeout)
                     : table_.lock_for(ctx, key, cfg_.wait_timeout)) {
            return true;
          }
        }
        return false;
      }
    }
    return false;
  }

  Table& table_;
  Config cfg_;
  std::vector<Held> held_;
  unsigned member_ = 0;  ///< index on cfg_.stamps, when there is one
  std::uint64_t ts_ = 0;
  bool shrinking_ = false;
};

}  // namespace relock::table
