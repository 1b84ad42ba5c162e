// Wait-die under real contention: 4 threads run strict-2PL transactions
// over a few hot keys (Zipf 0.9, half reads), each retrying aborted
// attempts with its original timestamp until it commits. Oracles: every
// transaction commits, the per-key datum sum equals the committed writes,
// and once the threads are done the board lists no one for any key.
// Duration: RELOCK_STRESS_MS (default 1000); the key choices derive from
// the printed stress seed (RELOCK_TEST_SEED pins it).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "relock/platform/native.hpp"
#include "relock/platform/rng.hpp"
#include "relock/table/lock_table.hpp"
#include "relock/table/twopl.hpp"
#include "relock/workload/zipf.hpp"
#include "stress_seed.hpp"

namespace relock::table {
namespace {

using native::NativePlatform;
using Table = LockTable<NativePlatform>;
using Txn = TxnLockSet<NativePlatform>;

Nanos stress_window_ns() {
  if (const char* env = std::getenv("RELOCK_STRESS_MS")) {
    return static_cast<Nanos>(std::strtoull(env, nullptr, 10)) * 1'000'000;
  }
  return 1'000'000'000;
}

TEST(WaitDieStress, HotMixedKeysCommitAndLeaveBoardEmpty) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeys = 64;
  constexpr std::uint64_t kMaxOps = 8;
  // A transaction still uncommitted after this many attempts is reported
  // as a failure instead of hanging the suite.
  constexpr std::uint64_t kMaxAttempts = 1'000'000;
  const std::uint64_t seed = relock::testing::stress_seed();

  native::Domain dom(16);
  Table::Options o;
  o.capacity = 256;
  o.partitions = 8;
  o.lock_options.scheduler = SchedulerKind::kReaderWriter;
  o.lock_options.attributes = LockAttributes::combined(100);
  Table t(dom, o);
  WaitDieStamps stamps(1024);
  const workload::ZipfianSampler zipf(kKeys, 0.9);
  std::vector<std::uint64_t> datum(kKeys, 0);  // written under its key's lock
  // The lock sets outlive the threads, so the final board check sees
  // members that are still joined, with their last timestamps set.
  std::vector<std::unique_ptr<Txn>> sets;
  for (int i = 0; i < kThreads; ++i) {
    sets.push_back(std::make_unique<Txn>(
        t, Txn::Config{.policy = DeadlockPolicy::kWaitDie,
                       .wait_timeout = 200'000,  // 200 us slices
                       .stamps = &stamps}));
  }
  std::atomic<std::uint64_t> next_ts{1};
  std::atomic<std::uint64_t> commits{0}, writes{0}, aborts{0}, stuck{0};
  const Nanos deadline = monotonic_now() + stress_window_ns();

  std::vector<std::thread> team;
  for (int ti = 0; ti < kThreads; ++ti) {
    team.emplace_back([&, ti] {
      native::Context ctx(dom);
      Txn& txn = *sets[static_cast<std::size_t>(ti)];
      Xoshiro256 rng(seed ^ (0x3d1eu + static_cast<unsigned>(ti)));
      std::vector<TxnOp> ops;
      while (monotonic_now() < deadline) {
        ops.clear();
        const std::uint64_t want = 1 + rng.next_below(kMaxOps);
        for (std::uint64_t k = 0; k < want; ++k) {
          const std::uint64_t key = zipf.sample_scrambled(rng);
          const AccessMode mode = rng.next_below(2) == 0 ? AccessMode::kRead
                                                         : AccessMode::kWrite;
          bool merged = false;
          for (TxnOp& op : ops) {
            if (op.key != key) continue;
            if (mode == AccessMode::kWrite) op.mode = AccessMode::kWrite;
            merged = true;
          }
          if (!merged) ops.push_back({key, mode});
        }
        const std::uint64_t ts = next_ts.fetch_add(1);
        bool committed = false;
        for (std::uint64_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
          txn.begin(ts);
          bool ok = true;
          for (const TxnOp& op : ops) {
            if (!txn.acquire(ctx, op.key, op.mode)) {
              ok = false;
              break;
            }
          }
          if (ok) {
            for (const TxnOp& op : ops) {
              if (op.mode != AccessMode::kWrite) continue;
              ++datum[op.key];
              writes.fetch_add(1, std::memory_order_relaxed);
            }
          }
          txn.release_all(ctx);
          if (ok) {
            committed = true;
            break;
          }
          aborts.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::yield();
        }
        if (!committed) {
          stuck.fetch_add(1);
          return;
        }
        commits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& th : team) th.join();

  EXPECT_EQ(stuck.load(), 0u) << "a transaction never committed";
  EXPECT_GT(commits.load(), 0u);
  std::uint64_t sum = 0;
  for (const std::uint64_t d : datum) sum += d;
  EXPECT_EQ(sum, writes.load()) << "lost or phantom updates";
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(stamps.holder(k), 0u) << "key " << k << " left on the board";
  }
  std::printf("[stress] %llu commits, %llu aborts\n",
              static_cast<unsigned long long>(commits.load()),
              static_cast<unsigned long long>(aborts.load()));
}

}  // namespace
}  // namespace relock::table
