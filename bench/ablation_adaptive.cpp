// Ablation: self-adaptive locks ([MS93] / the paper's future work). A
// workload alternates phases of short and long critical sections; we
// compare static spin, static blocking, and a lock whose waiting policy is
// reconfigured by the monitor-driven hysteresis policy.
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "relock/adapt/policy_engine.hpp"
#include "relock/core/configurable_lock.hpp"
#include "relock/sim/machine.hpp"
#include "relock/workload/samplers.hpp"

int main() {
  using namespace relock;
  using namespace relock::bench;
  using sim::Machine;
  using sim::MachineParams;
  using sim::ProcId;
  using sim::SimPlatform;
  using sim::Thread;

  bench::print_header(
      "Ablation: adaptive waiting policy on a phase-changing workload",
      "section 6 / [MS93]");

  constexpr std::uint32_t kLockers = 8;
  constexpr std::uint32_t kPhases = 6;
  constexpr std::uint32_t kItersPerPhase = 10;
  constexpr Nanos kShortCs = 20'000;
  constexpr Nanos kLongCs = 1'500'000;
  constexpr Nanos kUsefulPerProc = 300'000'000;

  auto run = [&](LockAttributes attrs, bool adaptive) {
    MachineParams params = MachineParams::butterfly();
    params.quantum = 2'000'000;
    Machine m(params);
    ConfigurableLock<SimPlatform>::Options o;
    o.scheduler = SchedulerKind::kFcfs;
    o.attributes = attrs;
    o.placement = Placement::on(0);
    o.monitor_enabled = true;
    ConfigurableLock<SimPlatform> lock(m, o);

    adapt::SpinBlockHysteresisPolicy::Params pp;
    pp.block_above_ns = 400'000.0;
    pp.spin_below_ns = 100'000.0;
    pp.min_samples = 4;
    adapt::PolicyEngine<SimPlatform>::Options eo;
    eo.capacity = 1;
    eo.cooldown_ticks = 0;
    adapt::PolicyEngine<SimPlatform> engine(eo);
    engine.register_lock(lock,
                         std::make_unique<adapt::SpinBlockHysteresisPolicy>(pp));

    std::uint32_t lockers_done = 0;
    for (std::uint32_t i = 0; i < kLockers; ++i) {
      m.spawn(static_cast<ProcId>(i), [&, i](Thread& t) {
        Xoshiro256 rng(11 + i);
        for (std::uint32_t phase = 0; phase < kPhases; ++phase) {
          const Nanos cs = phase % 2 == 0 ? kShortCs : kLongCs;
          for (std::uint32_t j = 0; j < kItersPerPhase; ++j) {
            m.compute(t, rng.next_below(1'000'000));
            lock.lock(t);
            m.compute(t, cs);
            lock.unlock(t);
          }
        }
        ++lockers_done;
      });
      m.spawn(static_cast<ProcId>(i), [&](Thread& t) {
        for (Nanos r = kUsefulPerProc; r > 0; r -= 250'000) {
          m.compute(t, 250'000);
        }
      });
    }
    if (adaptive) {
      // The external monitoring agent on its own processor.
      m.spawn(static_cast<ProcId>(kLockers), [&](Thread& t) {
        while (lockers_done < kLockers) {
          m.compute(t, 4'000'000);
          engine.tick(t);
        }
      });
    }
    m.run();
    std::printf("  reconfigurations applied: %llu\n",
                static_cast<unsigned long long>(engine.counters().applied));
    return m.now();
  };

  std::printf("static spin:\n");
  const Nanos spin = run(LockAttributes::spin(), false);
  std::printf("  elapsed %.2f ms\n", static_cast<double>(spin) / 1e6);

  std::printf("static blocking:\n");
  const Nanos block = run(LockAttributes::blocking(), false);
  std::printf("  elapsed %.2f ms\n", static_cast<double>(block) / 1e6);

  std::printf("adaptive (starts as spin):\n");
  const Nanos adaptive = run(LockAttributes::spin(), true);
  std::printf("  elapsed %.2f ms\n", static_cast<double>(adaptive) / 1e6);

  std::printf("\nexpected: adaptive tracks the better static policy in each "
              "phase,\napproaching the better static policy without advance knowledge of phases\n");
  return 0;
}
