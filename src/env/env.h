// The runtime seam: what a protocol component needs from its executor.
//
// Every layer of the metadata service — commit engines, WAL, lock managers,
// network, workload sources — used to hold a concrete Simulator&.  Env
// narrows that dependency to the four things those layers actually consume:
//
//   * now()            — the current time on the executor's clock.
//   * schedule_at/after — run a callback later, with a cancellable handle.
//   * cancel()         — revoke a pending callback (stale handles are
//                        harmless no-ops).
//   * rng()            — a deterministic-per-executor random stream for
//                        code written against Env (pre-existing consumers
//                        such as Network keep their own seeded streams, so
//                        simulated trace hashes are untouched).
//
// Two implementations exist: SimEnv (src/env/sim_env.h) delegates 1:1 to
// the discrete-event Simulator and preserves its determinism guarantees;
// RtEnv (src/rt/rt_env.h) runs the same callbacks on real threads over
// std::chrono::steady_clock.  The contract — what callers may rely on
// under each — is documented in docs/RUNTIME.md.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/check.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace opc {

/// Executor-neutral handle to a scheduled callback: the event queue's
/// (slot, generation) handle, which both executors hand out.
using TimerHandle = EventHandle;

/// Abstract execution environment.  Virtual dispatch sits one level above
/// the simulator's inlined hot path: the kernel benchmarks drive Simulator
/// directly, and a schedule through SimEnv costs one indirect call on top
/// of the same inlined schedule_at.
class Env {
 public:
  /// Same type (and inline window) as Simulator::Callback, so callbacks
  /// move through SimEnv without conversion or allocation.
  using Callback = InlineCallback<void(), kInlineCallbackBytes>;

  virtual ~Env() = default;

  /// Current time on this executor's clock (simulated or steady_clock
  /// nanoseconds since executor start).
  [[nodiscard]] virtual SimTime now() const = 0;

  /// Schedules `cb` to run at absolute time `when` (>= now()).
  virtual TimerHandle schedule_at(SimTime when, Callback cb) = 0;

  /// Cancels a pending timer.  No-op (returns false) if it already fired
  /// or was already cancelled.
  virtual bool cancel(TimerHandle h) = 0;

  /// Deterministic random stream owned by this executor, for code written
  /// against Env.  In RtEnv the stream is per-worker-thread.
  [[nodiscard]] virtual Rng& rng() = 0;

  /// Schedules `cb` to run `delay` from now.  Negative delays are a bug.
  TimerHandle schedule_after(Duration delay, Callback cb) {
    SIM_CHECK_MSG(delay.count_nanos() >= 0, "cannot schedule into the past");
    return schedule_at(now() + delay, std::move(cb));
  }

 protected:
  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;
};

}  // namespace opc
