// The link delay model shared by the simulated Network and the live
// RtTransport.
//
// A message sent on a directed (from, to) channel arrives after the
// one-way latency, plus an optional per-byte cost (size / bandwidth), plus
// optional uniform jitter in [0, jitter_max].  Channels are FIFO: an
// arrival is never earlier than 1 ns after the previous arrival on the same
// channel, so even with jitter a later send never overtakes an earlier one,
// matching the in-order links the commit protocols assume.
//
// The model owns no randomness: each transport passes in its own Rng, so
// the jitter draw lands in that transport's stream and draw order.  It is
// not thread-safe; a transport that sends from several threads calls it
// under its own lock.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "net/types.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace opc {

struct NetworkConfig {
  Duration latency = Duration::micros(100);  // one-way, paper's value
  double bytes_per_second = 0;               // 0 = latency-only model
  Duration jitter_max = Duration::zero();    // uniform extra delay in [0,max]
  double loss_probability = 0.0;  // per message; only the simulated Network
};

class LinkModel {
 public:
  explicit LinkModel(const NetworkConfig& cfg)
      : latency_(cfg.latency),
        bytes_per_second_(cfg.bytes_per_second),
        jitter_max_(cfg.jitter_max) {}

  /// Arrival time of a `bytes`-byte message sent from -> to at `now`,
  /// recorded as the channel's FIFO clock.  Draws one jitter sample from
  /// `rng` when jitter is on, none otherwise.
  SimTime arrival(SimTime now, NodeId from, NodeId to, std::uint64_t bytes,
                  Rng& rng);

  /// Changes the uniform extra-delay bound from now on (chaos nemesis).
  void set_jitter_max(Duration j) { jitter_max_ = j; }

 private:
  Duration latency_;
  double bytes_per_second_;
  Duration jitter_max_;
  // Last arrival time per directed channel.
  std::unordered_map<std::uint64_t, SimTime> channel_clock_;
};

}  // namespace opc
