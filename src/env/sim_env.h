// Env over the discrete-event Simulator — the deterministic backend.
//
// A pure 1:1 delegation: schedule_at forwards to Simulator::schedule_at
// (same sequence numbers, same (when, seq) dispatch order), so a component
// stack wired through SimEnv produces byte-identical traces to one wired
// against the Simulator directly.  The Rng stream is consumed only by code
// written against Env; pre-existing consumers (Network, workload sources)
// keep their own seeded streams, leaving golden trace hashes untouched.
#pragma once

#include "env/env.h"
#include "sim/simulator.h"

namespace opc {

class SimEnv final : public Env {
 public:
  /// `stream` salts the Env-owned rng; the simulator's existing consumers
  /// each own distinct streams (0xA11CE for the network, 0x0B50 / 0x3157
  /// for sources), so the default cannot collide with them.
  explicit SimEnv(Simulator& sim, std::uint64_t seed = 1,
                  std::uint64_t stream = 0xE4411)
      : sim_(sim), rng_(seed, stream) {}

  [[nodiscard]] SimTime now() const override { return sim_.now(); }

  TimerHandle schedule_at(SimTime when, Callback cb) override {
    return sim_.schedule_at(when, std::move(cb));
  }

  bool cancel(TimerHandle h) override { return sim_.cancel(h); }

  [[nodiscard]] Rng& rng() override { return rng_; }

  /// The wrapped kernel, for the few places that legitimately drive the
  /// event loop (experiment runners, chaos drivers) rather than merely
  /// schedule on it.
  [[nodiscard]] Simulator& simulator() { return sim_; }

 private:
  Simulator& sim_;
  Rng rng_;
};

}  // namespace opc
