// The Platform concept: the contract every execution substrate (native
// threads, the Butterfly simulator, vthreads) satisfies. Lock algorithms in
// locks/ and core/ are templates over a Platform, so the identical algorithm
// code runs on real hardware and inside the deterministic NUMA simulator.
#pragma once

#include <concepts>
#include <cstdint>

#include "relock/platform/types.hpp"

namespace relock {

// clang-format off
template <typename P>
concept Platform = requires(typename P::Context& ctx,
                            typename P::Word& w,
                            const typename P::Word& cw,
                            std::uint64_t v,
                            ThreadId tid,
                            Nanos ns) {
  typename P::Context;
  typename P::Word;
  typename P::Domain;

  // Word construction: Word(Domain&, initial, Placement). Checked where the
  // word is built (constructors differ in default-argument shape).

  // Atomic memory operations on platform words.
  { P::load(ctx, cw) }          -> std::same_as<std::uint64_t>;
  { P::load_relaxed(ctx, cw) }  -> std::same_as<std::uint64_t>;
  { P::store(ctx, w, v) };
  { P::fetch_or(ctx, w, v) }    -> std::same_as<std::uint64_t>;
  { P::fetch_and(ctx, w, v) }   -> std::same_as<std::uint64_t>;
  { P::fetch_add(ctx, w, v) }   -> std::same_as<std::uint64_t>;
  { P::exchange(ctx, w, v) }    -> std::same_as<std::uint64_t>;
  { P::cas(ctx, w, v, v) }      -> std::same_as<bool>;

  // Delay / progress primitives.
  { P::pause(ctx) };
  { P::delay(ctx, ns) };
  { P::compute(ctx, ns) };
  { P::yield(ctx) };

  // Blocking: park the caller / wake a registered thread by id.
  { P::block(ctx) };
  { P::block_for(ctx, ns) }     -> std::same_as<bool>;
  { P::unblock(ctx, tid) };

  // Time.
  { P::now(ctx) }               -> std::same_as<Nanos>;

  // NUMA placement of the calling thread (kAnyNode when not modelled).
  { P::home_node(ctx) }         -> std::same_as<int>;

  // Identity.
  { ctx.self() }                -> std::same_as<ThreadId>;
  { ctx.priority() }            -> std::same_as<Priority>;
};
// clang-format on

/// True for platforms whose threads run with real hardware concurrency and
/// whose word operations are *not* part of a calibrated cost model (today:
/// the native platform). Lock algorithms use this to enable contention
/// optimisations — the lock-free arrival cell, meta-guard backoff, and
/// yield-escalating spin waits — that would otherwise perturb the
/// simulator's calibrated access counts (EXPERIMENTS.md Tables 2-5 must
/// stay byte-identical) or fight a cooperative scheduler.
template <typename P>
inline constexpr bool kRealConcurrency = [] {
  if constexpr (requires { P::kRealConcurrency; }) {
    return static_cast<bool>(P::kRealConcurrency);
  } else {
    return false;
  }
}();

}  // namespace relock
