// Adaptive lock: the monitor -> policy -> reconfiguration feedback loop
// (the paper's future-work direction, realized by relock/adapt).
//
// Workers drive a lock through two workload phases: short critical
// sections, then long ones. An external monitoring agent periodically
// evaluates the lock's statistics with a hysteresis policy and reconfigures
// the waiting policy (spin <-> combined spin/sleep) to match the phase.
//
// Build & run:  ./build/examples/adaptive_lock
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "relock/adapt/policy_engine.hpp"
#include "relock/core/configurable_lock.hpp"
#include "relock/platform/clock.hpp"
#include "relock/platform/native.hpp"

using relock::ConfigurableLock;
using relock::Nanos;
using NP = relock::native::NativePlatform;

int main() {
  relock::native::Domain domain;

  ConfigurableLock<NP>::Options options;
  options.scheduler = relock::SchedulerKind::kFcfs;
  options.attributes = relock::LockAttributes::spin();
  options.monitor_enabled = true;
  ConfigurableLock<NP> lock(domain, options);

  relock::adapt::SpinBlockHysteresisPolicy::Params policy_params;
  policy_params.block_above_ns = 300'000.0;  // long phase: >300us holds
  policy_params.spin_below_ns = 50'000.0;
  policy_params.min_samples = 4;
  // A one-lock engine: no cooldown, the policy's own band is the damper.
  relock::adapt::PolicyEngine<NP>::Options engine_options;
  engine_options.capacity = 1;
  engine_options.cooldown_ticks = 0;
  relock::adapt::PolicyEngine<NP> engine(engine_options);
  engine.register_lock(
      lock, std::make_unique<relock::adapt::SpinBlockHysteresisPolicy>(
                policy_params));

  std::atomic<bool> stop{false};
  std::atomic<Nanos> cs_length{10'000};  // phase knob: 10us -> 1ms -> 10us

  constexpr int kWorkers = 2;
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      relock::native::Context ctx(domain);
      while (!stop.load(std::memory_order_acquire)) {
        lock.lock(ctx);
        relock::spin_for(cs_length.load(std::memory_order_relaxed));
        lock.unlock(ctx);
        relock::spin_for(5'000);
      }
    });
  }

  // The external agent: samples the monitor every 50ms and reconfigures.
  std::thread agent([&] {
    relock::native::Context ctx(domain);
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (engine.tick(ctx) > 0) {
        std::printf("[agent] reconfigured waiting policy to: %s\n",
                    relock::to_string(relock::classify(lock.attributes())));
      }
    }
  });

  auto run_phase = [&](const char* name, Nanos cs, int millis) {
    std::printf("phase: %s (cs = %lluus)\n", name,
                static_cast<unsigned long long>(cs / 1000));
    cs_length.store(cs, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(millis));
  };

  run_phase("short critical sections", 10'000, 400);
  run_phase("long critical sections", 1'000'000, 600);
  run_phase("short critical sections again", 10'000, 600);

  stop.store(true, std::memory_order_release);
  agent.join();
  for (auto& t : workers) t.join();

  std::printf("adaptations applied: %llu\n",
              static_cast<unsigned long long>(engine.counters().applied));
  std::printf("final policy: %s\n",
              relock::to_string(relock::classify(lock.attributes())));
  return 0;
}
