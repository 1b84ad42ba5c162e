// Umbrella header: the whole public API.
//
//   #include "relock/relock.hpp"
//
// For finer-grained inclusion, pick the specific headers:
//   relock/native/mutex.hpp          - std-interoperable native mutexes
//   relock/core/configurable_lock.hpp- the configurable lock object
//   relock/locks/*.hpp               - baseline lock algorithms
//   relock/sim/machine.hpp           - the Butterfly NUMA simulator
//   relock/table/lock_table.hpp      - striped record-id -> lock table
//   relock/vthreads/runtime.hpp      - user-level M:N threads
//   relock/workload/*.hpp            - workload generators
//   relock/adapt/*.hpp               - adaptation policies + engine
#pragma once

#include "relock/adapt/policies.hpp"
#include "relock/adapt/policy_engine.hpp"
#include "relock/core/attributes.hpp"
#include "relock/core/configurable_lock.hpp"
#include "relock/core/edf_scheduler.hpp"
#include "relock/core/scheduler.hpp"
#include "relock/core/waiter.hpp"
#include "relock/locks/anderson_lock.hpp"
#include "relock/locks/blocking_lock.hpp"
#include "relock/locks/clh_lock.hpp"
#include "relock/locks/lock_concepts.hpp"
#include "relock/locks/mcs_lock.hpp"
#include "relock/locks/rw_spin_lock.hpp"
#include "relock/locks/spin_locks.hpp"
#include "relock/locks/ticket_lock.hpp"
#include "relock/monitor/lock_monitor.hpp"
#include "relock/monitor/reporter.hpp"
#include "relock/native/mutex.hpp"
#include "relock/platform/backoff.hpp"
#include "relock/platform/cacheline.hpp"
#include "relock/platform/clock.hpp"
#include "relock/platform/native.hpp"
#include "relock/platform/parker.hpp"
#include "relock/platform/platform.hpp"
#include "relock/platform/rng.hpp"
#include "relock/platform/types.hpp"
#include "relock/sim/machine.hpp"
#include "relock/sync/barrier.hpp"
#include "relock/table/lock_table.hpp"
#include "relock/table/twopl.hpp"
#include "relock/sync/condition_variable.hpp"
#include "relock/sync/semaphore.hpp"
#include "relock/vthreads/platform.hpp"
#include "relock/vthreads/runtime.hpp"
#include "relock/workload/client_server.hpp"
#include "relock/workload/cs_workload.hpp"
#include "relock/workload/samplers.hpp"
#include "relock/workload/zipf.hpp"
