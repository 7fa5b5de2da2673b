// The discrete-event simulation kernel.
//
// A Simulator runs a clock over an EventQueue (src/sim/event_queue.h) of
// (time, sequence) ordered events.  Events scheduled for the same instant
// fire in scheduling order, which — together with the deterministic RNG —
// makes every simulated history a pure function of its configuration and
// seed.
//
// This replaces the OMNeT++ / ACID Sim Tools substrate the paper used: all
// modules (network links, disks, lock managers, protocol state machines)
// interact exclusively by scheduling callbacks on one shared Simulator.
#pragma once

#include <cstdint>

#include "sim/check.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace opc {

/// Single-threaded deterministic discrete-event simulator.
class Simulator {
 public:
  using Callback = EventQueue::Callback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.  Only advances inside run()/step().
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` to fire `delay` from now.  Negative delays are a bug.
  EventHandle schedule_after(Duration delay, Callback cb) {
    SIM_CHECK_MSG(delay.count_nanos() >= 0, "cannot schedule into the past");
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Schedules `cb` to fire at absolute time `when` (>= now()).  Inline:
  /// schedule sits on the dominant simulation cycle and must inline into
  /// callers across translation units.
  EventHandle schedule_at(SimTime when, Callback cb) {
    SIM_CHECK_MSG(when >= now_, "cannot schedule into the past");
    return queue_.push(when.count_nanos(), std::move(cb));
  }

  /// Cancels a pending event with true removal from the heap (no tombstone
  /// churn).  No-op if the event already fired or was already cancelled.
  /// Returns true if something was actually cancelled.
  bool cancel(EventHandle h) { return queue_.cancel(h); }

  /// Runs until the event queue drains or stop() is called.
  /// Returns the number of events dispatched.
  std::uint64_t run();

  /// Runs until the queue drains, stop() is called, or simulated time would
  /// pass `deadline`; the clock is left at min(deadline, last event time).
  /// The deadline probe peeks at the heap root — a quiescent boundary check
  /// is O(1), with no pop/re-push of the too-late entry.
  std::uint64_t run_until(SimTime deadline);

  /// Convenience: run_until(now() + d).
  std::uint64_t run_for(Duration d) { return run_until(now_ + d); }

  /// Dispatches exactly one event if available.  Returns false on an empty
  /// queue.
  bool step();

  /// Makes run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  /// True when no events remain.
  [[nodiscard]] bool idle() const { return queue_.empty(); }

  /// Number of events pending dispatch.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Total events dispatched over the simulator's lifetime.
  [[nodiscard]] std::uint64_t dispatched_events() const { return dispatched_; }

 private:
  /// Pops the queue's head and runs its callback (clock advanced first).
  void dispatch_top();

  EventQueue queue_;
  SimTime now_ = SimTime::zero();
  std::uint64_t dispatched_ = 0;
  bool stopped_ = false;
  bool running_ = false;
};

}  // namespace opc
