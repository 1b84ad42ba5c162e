// Deterministic seeded tests for the 2PL transaction driver: acquisition
// discipline (ordering, upgrade rules, phase rules), wait-die / no-wait
// resolution of induced cycles (two transactions taking the same two keys
// in reversed order must never deadlock - the victim observes an abort,
// the survivor commits), barrier-pinned wait-die decisions against readers
// and waiters, board membership, and Zipfian generator distribution sanity.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "relock/platform/native.hpp"
#include "relock/table/lock_table.hpp"
#include "relock/table/twopl.hpp"
#include "relock/workload/zipf.hpp"
#include "stress_seed.hpp"

namespace relock::table {
namespace {

using native::NativePlatform;
using Table = LockTable<NativePlatform>;
using Txn = TxnLockSet<NativePlatform>;

Table::Options table_options(bool rw = false) {
  Table::Options o;
  o.capacity = 1024;
  o.partitions = 8;
  o.lock_options.scheduler =
      rw ? SchedulerKind::kReaderWriter : SchedulerKind::kFcfs;
  o.lock_options.attributes = LockAttributes::spin();
  return o;
}

TEST(TwoPhaseLocking, CommitReleasesEverythingAndIsReusable) {
  native::Domain dom(16);
  Table t(dom, table_options());
  native::Context ctx(dom);
  Txn txn(t, {.policy = DeadlockPolicy::kOrdered});

  for (int round = 0; round < 3; ++round) {
    txn.begin(static_cast<std::uint64_t>(round) + 1);
    EXPECT_TRUE(txn.acquire(ctx, 1, AccessMode::kWrite));
    EXPECT_TRUE(txn.acquire(ctx, 5, AccessMode::kRead));
    EXPECT_TRUE(txn.acquire(ctx, 9, AccessMode::kWrite));
    EXPECT_EQ(txn.held_count(), 3u);
    txn.release_all(ctx);
    EXPECT_EQ(txn.held_count(), 0u);
  }
  // Everything came back: all three keys lock inline again.
  for (const Table::Key k : {1ull, 5ull, 9ull}) {
    EXPECT_TRUE(t.try_lock(ctx, k));
    t.unlock(ctx, k);
  }
}

TEST(TwoPhaseLocking, ReacquireIsIdempotentAcrossCoveredModes) {
  native::Domain dom(16);
  Table t(dom, table_options(/*rw=*/true));
  native::Context ctx(dom);
  Txn txn(t, {.policy = DeadlockPolicy::kOrdered});

  txn.begin(1);
  EXPECT_TRUE(txn.acquire(ctx, 2, AccessMode::kWrite));
  EXPECT_TRUE(txn.acquire(ctx, 2, AccessMode::kWrite));  // same mode
  EXPECT_TRUE(txn.acquire(ctx, 2, AccessMode::kRead));   // weaker mode
  EXPECT_TRUE(txn.acquire(ctx, 4, AccessMode::kRead));
  EXPECT_TRUE(txn.acquire(ctx, 4, AccessMode::kRead));
  EXPECT_EQ(txn.held_count(), 2u);  // one entry per key
  txn.release_all(ctx);
}

TEST(TwoPhaseLocking, OrderingDisciplineThrows) {
  native::Domain dom(16);
  Table t(dom, table_options());
  native::Context ctx(dom);
  Txn txn(t, {.policy = DeadlockPolicy::kOrdered});

  txn.begin(1);
  EXPECT_TRUE(txn.acquire(ctx, 10, AccessMode::kWrite));
  EXPECT_THROW((void)txn.acquire(ctx, 3, AccessMode::kWrite),
               LockUsageError);
  // The violation aborted nothing: the held set is intact and usable.
  EXPECT_EQ(txn.held_count(), 1u);
  EXPECT_TRUE(txn.acquire(ctx, 11, AccessMode::kWrite));
  txn.release_all(ctx);
}

TEST(TwoPhaseLocking, PhaseRulesThrow) {
  native::Domain dom(16);
  Table t(dom, table_options());
  native::Context ctx(dom);
  Txn txn(t, {.policy = DeadlockPolicy::kOrdered});

  txn.begin(1);
  EXPECT_TRUE(txn.acquire(ctx, 1, AccessMode::kWrite));
  txn.release_all(ctx);
  // Strict 2PL: the shrinking phase is terminal until the next begin().
  EXPECT_THROW((void)txn.acquire(ctx, 2, AccessMode::kWrite),
               LockUsageError);
  txn.begin(2);
  EXPECT_TRUE(txn.acquire(ctx, 2, AccessMode::kWrite));
  EXPECT_THROW(txn.begin(3), LockUsageError);  // begin with locks held
  txn.release_all(ctx);
}

TEST(TwoPhaseLocking, ReadToWriteUpgradeThrows) {
  native::Domain dom(16);
  Table t(dom, table_options(/*rw=*/true));
  native::Context ctx(dom);
  Txn txn(t, {.policy = DeadlockPolicy::kOrdered});

  txn.begin(1);
  EXPECT_TRUE(txn.acquire(ctx, 7, AccessMode::kRead));
  EXPECT_THROW((void)txn.acquire(ctx, 7, AccessMode::kWrite),
               LockUsageError);
  txn.release_all(ctx);
}

TEST(TwoPhaseLocking, WaitDieRequiresStamps) {
  native::Domain dom(16);
  Table t(dom, table_options());
  EXPECT_THROW(Txn(t, {.policy = DeadlockPolicy::kWaitDie}), LockUsageError);
}

// The canonical induced cycle, resolved by wait-die: T1 (older, ts=1)
// holds A and wants B; T2 (younger, ts=2) holds B and wants A. The
// timestamp rule is deterministic: T2 must die (T1's stamp on A is
// older), T1 must survive and commit. Barriers pin the interleaving.
TEST(TwoPhaseLocking, WaitDieResolvesReversedOrderCycle) {
  native::Domain dom(16);
  Table t(dom, table_options());
  WaitDieStamps stamps(64);
  const Table::Key A = 100, B = 200;
  std::atomic<bool> t1_has_a{false};
  std::atomic<bool> t2_has_b{false};
  std::atomic<int> t1_aborts{0}, t2_aborts{0};
  std::atomic<int> t1_commits{0}, t2_commits{0};

  std::thread th1([&] {
    native::Context ctx(dom);
    Txn txn(t, {.policy = DeadlockPolicy::kWaitDie,
                .wait_timeout = 100'000,  // 100 us slices while older waits
                .stamps = &stamps});
    txn.begin(1);
    ASSERT_TRUE(txn.acquire(ctx, A, AccessMode::kWrite));
    t1_has_a.store(true);
    while (!t2_has_b.load()) std::this_thread::yield();
    // Older transaction: waits (in bounded slices) until T2 dies and
    // releases B - never aborts.
    if (txn.acquire(ctx, B, AccessMode::kWrite)) {
      ++t1_commits;
    } else {
      ++t1_aborts;
    }
    txn.release_all(ctx);
  });

  std::thread th2([&] {
    native::Context ctx(dom);
    Txn txn(t, {.policy = DeadlockPolicy::kWaitDie,
                .wait_timeout = 100'000,
                .stamps = &stamps});
    txn.begin(2);
    ASSERT_TRUE(txn.acquire(ctx, B, AccessMode::kWrite));
    t2_has_b.store(true);
    while (!t1_has_a.load()) std::this_thread::yield();
    // Younger transaction against the older holder of A: must die.
    bool got = txn.acquire(ctx, A, AccessMode::kWrite);
    if (!got) {
      ++t2_aborts;
      txn.release_all(ctx);  // frees B, unblocking T1
      // Retry with the same timestamp until T1 commits and retracts.
      for (;;) {
        txn.begin(2);
        if (txn.acquire(ctx, A, AccessMode::kWrite)) break;
        ++t2_aborts;
        txn.release_all(ctx);
        std::this_thread::yield();
      }
    }
    ++t2_commits;
    txn.release_all(ctx);
  });

  th1.join();
  th2.join();
  EXPECT_EQ(t1_aborts.load(), 0) << "the older transaction must not die";
  EXPECT_EQ(t1_commits.load(), 1);
  EXPECT_GE(t2_aborts.load(), 1) << "the younger transaction must die";
  EXPECT_EQ(t2_commits.load(), 1) << "the victim retries and commits";
  // Quiescence: the cycle left nothing held.
  native::Context ctx(dom);
  for (const Table::Key k : {A, B}) {
    EXPECT_TRUE(t.try_lock(ctx, k));
    t.unlock(ctx, k);
  }
}

TEST(TwoPhaseLocking, WaitDieRejectsTimestampZero) {
  native::Domain dom(16);
  Table t(dom, table_options());
  native::Context ctx(dom);
  WaitDieStamps stamps(64);
  Txn wd(t, {.policy = DeadlockPolicy::kWaitDie, .stamps = &stamps});
  // 0 is the board's "no one": a ts-0 transaction could never be seen.
  EXPECT_THROW(wd.begin(0), LockUsageError);
  wd.begin(1);
  EXPECT_TRUE(wd.acquire(ctx, 1, AccessMode::kWrite));
  wd.release_all(ctx);
  // The other policies never read the timestamp, so 0 stays legal there.
  for (const DeadlockPolicy p : {DeadlockPolicy::kOrdered,
                                 DeadlockPolicy::kNoWait,
                                 DeadlockPolicy::kTimeout}) {
    Txn txn(t, {.policy = p});
    EXPECT_NO_THROW(txn.begin(0)) << to_string(p);
    EXPECT_TRUE(txn.acquire(ctx, 1, AccessMode::kWrite)) << to_string(p);
    txn.release_all(ctx);
  }
}

// Wait-die decisions with every interleaving pinned by latches. Each victim
// must die in well under one slice: a victim that cannot see the older
// reader or waiter in its way sits out all 16 slices (3.2 s) instead.
constexpr Nanos kSlice = 200'000'000;  // 200 ms

Txn::Config wait_die(WaitDieStamps& stamps) {
  return {.policy = DeadlockPolicy::kWaitDie,
          .wait_timeout = kSlice,
          .stamps = &stamps};
}

/// acquire()'s result and how long it took.
std::pair<bool, Nanos> timed_acquire(Txn& txn, native::Context& ctx,
                                     Table::Key key, AccessMode mode) {
  const Nanos t0 = monotonic_now();
  const bool got = txn.acquire(ctx, key, mode);
  return {got, monotonic_now() - t0};
}

// (a) An older transaction holds K shared; a younger writer dies at once.
TEST(WaitDie, YoungerWriterDiesAtOnceAgainstOlderReader) {
  native::Domain dom(16);
  Table t(dom, table_options(/*rw=*/true));
  WaitDieStamps stamps(64);
  const Table::Key K = 7;
  std::latch held(1), done(1);

  std::thread reader([&] {
    native::Context ctx(dom);
    Txn txn(t, wait_die(stamps));
    txn.begin(1);
    EXPECT_TRUE(txn.acquire(ctx, K, AccessMode::kRead));
    held.count_down();
    done.wait();
    txn.release_all(ctx);
  });
  held.wait();
  native::Context ctx(dom);
  Txn writer(t, wait_die(stamps));
  writer.begin(2);
  const auto [got, took] = timed_acquire(writer, ctx, K, AccessMode::kWrite);
  writer.release_all(ctx);
  done.count_down();
  reader.join();
  EXPECT_FALSE(got) << "the younger writer must die";
  EXPECT_LT(took, kSlice / 2);
}

// (b) T1 and T2 read K, T1 releases, then T3 requests K for write: T3 dies
// at once because T2 still holds K. A board that keeps only the oldest
// reader's stamp goes blank when T1 leaves and misses T2.
TEST(WaitDie, WriterDiesAgainstRemainingOlderReader) {
  native::Domain dom(16);
  Table t(dom, table_options(/*rw=*/true));
  WaitDieStamps stamps(64);
  const Table::Key K = 7;
  native::Context ctx(dom);
  Txn t1(t, wait_die(stamps));
  t1.begin(1);
  ASSERT_TRUE(t1.acquire(ctx, K, AccessMode::kRead));
  std::latch held(1), done(1);

  std::thread second([&] {
    native::Context ctx2(dom);
    Txn t2(t, wait_die(stamps));
    t2.begin(2);
    EXPECT_TRUE(t2.acquire(ctx2, K, AccessMode::kRead));
    held.count_down();
    done.wait();
    t2.release_all(ctx2);
  });
  held.wait();
  t1.release_all(ctx);
  Txn t3(t, wait_die(stamps));
  t3.begin(3);
  const auto [got, took] = timed_acquire(t3, ctx, K, AccessMode::kWrite);
  t3.release_all(ctx);
  done.count_down();
  second.join();
  EXPECT_FALSE(got) << "T3 must die against T2's read";
  EXPECT_LT(took, kSlice / 2);
}

// (c) T1, the oldest, waits for K, which young T3 holds. T2 then requests
// K and dies at once: T1 announced its interest before it started waiting.
TEST(WaitDie, RequesterDiesAgainstOlderWaiter) {
  native::Domain dom(16);
  Table t(dom, table_options(/*rw=*/true));
  WaitDieStamps stamps(64);
  const Table::Key K = 7;
  std::latch held(1), done(1);

  std::thread holder([&] {
    native::Context ctx(dom);
    Txn t3(t, wait_die(stamps));
    t3.begin(3);
    EXPECT_TRUE(t3.acquire(ctx, K, AccessMode::kWrite));
    held.count_down();
    done.wait();
    t3.release_all(ctx);
  });
  held.wait();
  std::thread waiter([&] {
    native::Context ctx(dom);
    Txn t1(t, wait_die(stamps));
    t1.begin(1);
    // The oldest transaction waits until T3 commits; it never dies.
    EXPECT_TRUE(t1.acquire(ctx, K, AccessMode::kWrite));
    t1.release_all(ctx);
  });
  // T1 is on the board once the oldest interest in K is its stamp.
  const Nanos give_up = monotonic_now() + 5'000'000'000;
  while (stamps.holder(K) != 1 && monotonic_now() < give_up) {
    std::this_thread::yield();
  }
  EXPECT_EQ(stamps.holder(K), 1u) << "T1 never announced its wait";
  native::Context ctx(dom);
  Txn t2(t, wait_die(stamps));
  t2.begin(2);
  const auto [got, took] = timed_acquire(t2, ctx, K, AccessMode::kWrite);
  t2.release_all(ctx);
  done.count_down();
  holder.join();
  waiter.join();
  EXPECT_FALSE(got) << "T2 must die against the older waiter T1";
  EXPECT_LT(took, kSlice / 2);
  EXPECT_EQ(stamps.holder(K), 0u);
}

// (d) The board holds 64 members; the 65th lock set throws, and a slot
// freed by a destroyed lock set can be joined again.
TEST(WaitDie, BoardAdmitsSixtyFourMembers) {
  native::Domain dom(16);
  Table t(dom, table_options());
  WaitDieStamps stamps(64);
  std::vector<std::unique_ptr<Txn>> sets;
  for (unsigned i = 0; i < WaitDieStamps::kMaxMembers; ++i) {
    sets.push_back(std::make_unique<Txn>(t, wait_die(stamps)));
  }
  EXPECT_THROW(Txn(t, wait_die(stamps)), LockUsageError);
  sets.erase(sets.begin() + 17);
  EXPECT_NO_THROW(sets.push_back(std::make_unique<Txn>(t, wait_die(stamps))));
  EXPECT_THROW(Txn(t, wait_die(stamps)), LockUsageError);
}

// Same reversed-order cycle under no-wait: nobody ever blocks, so the
// deadlock cannot form; with abort-and-retry both sides eventually commit.
TEST(TwoPhaseLocking, NoWaitResolvesReversedOrderCycle) {
  native::Domain dom(16);
  Table t(dom, table_options());
  const Table::Key A = 100, B = 200;
  std::atomic<int> aborts{0};
  std::atomic<int> commits{0};

  auto worker = [&](std::uint64_t ts, Table::Key first, Table::Key second) {
    native::Context ctx(dom);
    Txn txn(t, {.policy = DeadlockPolicy::kNoWait});
    for (;;) {
      txn.begin(ts);
      if (txn.acquire(ctx, first, AccessMode::kWrite) &&
          txn.acquire(ctx, second, AccessMode::kWrite)) {
        ++commits;
        txn.release_all(ctx);
        return;
      }
      ++aborts;  // try_lock failed somewhere: abort, release, retry
      txn.release_all(ctx);
      std::this_thread::yield();
    }
  };
  std::thread th1(worker, 1, A, B);
  std::thread th2(worker, 2, B, A);
  th1.join();
  th2.join();

  EXPECT_EQ(commits.load(), 2);
  native::Context ctx(dom);
  for (const Table::Key k : {A, B}) {
    EXPECT_TRUE(t.try_lock(ctx, k));
    t.unlock(ctx, k);
  }
}

// A seeded multi-thread 2PL mix: every transaction acquires its keys in
// ascending order under kOrdered (sorted sets, unbounded waits) - the
// classical deadlock-free discipline - with a per-key write-exclusivity
// oracle, as a soak of the driver + table stack.
TEST(TwoPhaseLocking, SeededOrderedWorkloadSoak) {
  native::Domain dom(32);
  Table t(dom, table_options());
  constexpr int kThreads = 4;
  constexpr int kTxns = 500;
  constexpr std::uint64_t kKeys = 32;
  std::atomic<int> owners[kKeys] = {};
  std::atomic<std::uint64_t> committed{0};

  std::vector<std::thread> team;
  team.reserve(kThreads);
  for (int ti = 0; ti < kThreads; ++ti) {
    team.emplace_back([&, ti] {
      native::Context ctx(dom);
      Xoshiro256 rng(relock::testing::stress_seed() ^
                     (0xab54u + static_cast<unsigned>(ti)));
      Txn txn(t, {.policy = DeadlockPolicy::kOrdered});
      for (int i = 0; i < kTxns; ++i) {
        txn.begin(static_cast<std::uint64_t>(ti * kTxns + i) + 1);
        // 2-5 distinct keys, ascending.
        const std::uint64_t want = 2 + rng.next_below(4);
        std::uint64_t k = rng.next_below(8);
        std::uint64_t taken = 0;
        for (; taken < want && k < kKeys; ++taken, k += 1 + rng.next_below(8)) {
          ASSERT_TRUE(txn.acquire(ctx, k, AccessMode::kWrite));
          const int inside =
              owners[k].fetch_add(1, std::memory_order_acq_rel);
          EXPECT_EQ(inside, 0) << "write overlap on key " << k;
          owners[k].fetch_sub(1, std::memory_order_acq_rel);
        }
        committed.fetch_add(1, std::memory_order_relaxed);
        txn.release_all(ctx);
      }
    });
  }
  for (auto& th : team) th.join();
  EXPECT_EQ(committed.load(), kThreads * kTxns);
  EXPECT_EQ(t.inflated_count(), 0u);
}

TEST(ZipfianSampler, ThetaZeroIsUniform) {
  Xoshiro256 rng(relock::testing::stress_seed() ^ 0x51f0u);
  workload::ZipfianSampler z(100, 0.0);
  constexpr int kSamples = 100'000;
  std::vector<int> counts(100, 0);
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t r = z.sample(rng);
    ASSERT_LT(r, 100u);
    ++counts[r];
  }
  // Every bin within 3x of the uniform expectation (1000 +- noise).
  for (int c : counts) {
    EXPECT_GT(c, 1000 / 3);
    EXPECT_LT(c, 3000);
  }
}

TEST(ZipfianSampler, SkewConcentratesOnLowRanks) {
  Xoshiro256 rng(relock::testing::stress_seed() ^ 0x21f0u);
  workload::ZipfianSampler z(1000, 0.99);
  constexpr int kSamples = 100'000;
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[z.sample(rng)];
  // YCSB-grade skew: rank 0 draws a few percent of all samples, the top
  // 10 ranks dominate the median rank by an order of magnitude.
  EXPECT_GT(counts[0], kSamples / 50);
  int top10 = 0;
  for (std::size_t r = 0; r < 10; ++r) top10 += counts[r];
  EXPECT_GT(top10, kSamples / 5);
  EXPECT_GT(counts[0], counts[500] * 10 + 1);
}

TEST(ZipfianSampler, ScrambledPreservesSkewMass) {
  Xoshiro256 rng(relock::testing::stress_seed() ^ 0x5c3au);
  workload::ZipfianSampler z(1000, 0.9);
  constexpr int kSamples = 100'000;
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[z.sample_scrambled(rng)];
  // The same mass concentrates on *some* 10 keys - just not 0..9.
  std::vector<int> sorted = counts;
  std::sort(sorted.rbegin(), sorted.rend());
  int top10 = 0;
  for (std::size_t r = 0; r < 10; ++r) top10 += sorted[r];
  EXPECT_GT(top10, kSamples / 6);
}

}  // namespace
}  // namespace relock::table
