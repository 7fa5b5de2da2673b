// Simulated cluster interconnect.
//
// The Network delivers typed envelopes between nodes after the delay of
// the shared LinkModel (net/link_model.h): a one-way latency (the paper's
// experiments use 100 µs), an optional per-byte cost and jitter, FIFO per
// (source, destination) channel.
//
// Failure modeling:
//   * Partitions — directed node pairs can be severed; messages crossing a
//     severed link are silently dropped (the sender cannot tell, exactly as
//     with a real partition).  Partitions can heal.
//   * Down nodes — a crashed node has no registered handler; deliveries to
//     it are dropped.  This models the receive-side loss of a crash.
//   * Probabilistic loss — optional, for stress tests.
//
// The payload travels as an inline MessageBody (env/message_body.h): the
// network is deliberately ignorant of protocol message contents; the ACP
// layer defines and downcasts its own message struct (src/acp/messages.h).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "env/env.h"
#include "env/transport.h"
#include "net/link_model.h"
#include "net/types.h"
#include "sim/rng.h"
#include "sim/trace.h"
#include "stats/counters.h"

namespace opc {

class Network final : public Transport {
 public:
  using Handler = Transport::Handler;

  Network(Env& env, NetworkConfig cfg, StatsRegistry& stats,
          TraceRecorder& trace, std::uint64_t seed = 1)
      : env_(env), link_(cfg), loss_probability_(cfg.loss_probability),
        stats_(stats), trace_(trace), rng_(seed, /*stream=*/0xA11CE),
        c_sent_(stats, "net.sent"), c_delivered_(stats, "net.delivered") {}

  /// Attaches the receive handler for a node; replaces any previous one.
  /// A node with no handler (never attached, or detached by a crash) drops
  /// everything sent to it.
  void attach(NodeId node, Handler handler) override;

  /// Detaches a node (crash).  In-flight messages to it will be dropped at
  /// delivery time — they were "on the wire" when the node died.
  void detach(NodeId node) override;

  [[nodiscard]] bool attached(NodeId node) const override {
    return handlers_.contains(node);
  }

  /// Sends an envelope; delivery is scheduled after the link latency unless
  /// the link is severed or the message is lost.
  void send(Envelope env) override;

  /// Severs the directed link from -> to.  sever_pair() cuts both ways.
  void sever(NodeId from, NodeId to) { severed_.insert(key(from, to)); }
  void sever_pair(NodeId a, NodeId b) { sever(a, b); sever(b, a); }

  /// Heals previously severed links.
  void heal(NodeId from, NodeId to) { severed_.erase(key(from, to)); }
  void heal_pair(NodeId a, NodeId b) { heal(a, b); heal(b, a); }
  void heal_all() { severed_.clear(); }

  [[nodiscard]] bool severed(NodeId from, NodeId to) const {
    return severed_.contains(key(from, to));
  }

  /// Test hook: a predicate inspected for every send; returning true drops
  /// the envelope (counted under net.dropped.filter).  Used by the
  /// fault-injection tests to lose one specific protocol message
  /// deterministically.  nullptr disables.
  void set_drop_filter(std::function<bool(const Envelope&)> filter) {
    drop_filter_ = std::move(filter);
  }

  // --- Runtime fault injection (chaos nemesis) ---
  /// Changes the per-message loss probability from now on; draws stay on
  /// this network's RNG stream, so runs remain seed-deterministic.
  void set_loss_probability(double p) { loss_probability_ = p; }
  /// Changes the uniform extra-delay bound from now on.  FIFO per channel
  /// is still enforced, so jitter reorders nothing within a link.
  void set_jitter_max(Duration j) { link_.set_jitter_max(j); }

 private:
  static std::uint64_t key(NodeId a, NodeId b) {
    return (static_cast<std::uint64_t>(a.value()) << 32) | b.value();
  }

  void deliver(Envelope env);

  Env& env_;
  LinkModel link_;
  double loss_probability_;
  StatsRegistry& stats_;
  TraceRecorder& trace_;
  Rng rng_;
  Counter c_sent_;
  Counter c_delivered_;
  std::function<bool(const Envelope&)> drop_filter_;
  std::unordered_map<NodeId, Handler> handlers_;
  std::unordered_set<std::uint64_t> severed_;
  // Recycled envelope boxes for in-flight messages: a send pops a box (or
  // allocates the first few), the delivery callback returns it.  Steady
  // state moves envelopes through without touching the heap.
  std::vector<std::unique_ptr<Envelope>> box_pool_;
};

}  // namespace opc
