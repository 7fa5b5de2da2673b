// In-process loopback Transport between RtEnv workers.
//
// Send-side, this is the simulated Network's LinkModel (net/link_model.h)
// made real: one-way latency, optional per-byte cost, optional uniform
// jitter, and FIFO per directed channel.  Instead of advancing a virtual
// clock, the arrival time becomes a real timer on the *destination* node's
// worker, so a message delivery executes on the same thread as everything
// else that node does — the engines stay single-threaded per node, exactly
// as under the simulator.
//
// Failure injection (partitions, loss) is not carried over: the rt backend
// runs live quiescent storms (docs/RUNTIME.md §4); chaos stays on the
// deterministic simulator where faults are reproducible.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "env/transport.h"
#include "net/link_model.h"
#include "rt/rt_env.h"
#include "sim/rng.h"
#include "stats/counters.h"

namespace opc {

class RtTransport final : public Transport {
 public:
  /// Node ids map 1:1 onto env workers: node i's handler runs on worker i.
  RtTransport(RtEnv& env, NetworkConfig cfg, std::uint64_t seed = 1)
      : env_(env), link_(cfg), rng_(seed, /*stream=*/0xA11CE) {}

  void attach(NodeId node, Handler handler) override;
  void detach(NodeId node) override;
  [[nodiscard]] bool attached(NodeId node) const override;
  void send(Envelope env) override;

  /// Folds this transport's counters into a registry (post-run, once the
  /// workers are quiescent), under the simulated Network's counter names.
  void export_stats(StatsRegistry& stats) const;

 private:
  void deliver(Envelope env);

  RtEnv& env_;
  mutable std::mutex mu_;  // guards link_, rng_, handlers_
  LinkModel link_;
  Rng rng_;
  std::unordered_map<NodeId, Handler> handlers_;

  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_down_{0};
};

}  // namespace opc
