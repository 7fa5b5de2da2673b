#include "rt/rt_cluster.h"

#include <chrono>

namespace opc {

namespace {
// The node wiring's view of the config.  Heartbeats stay off: quiescent
// runs have no failure detection.
ClusterConfig node_config(const RtClusterConfig& cfg) {
  ClusterConfig c;
  c.n_nodes = cfg.n_nodes;
  c.protocol = cfg.protocol;
  c.disk = cfg.disk;
  c.wal = cfg.wal;
  c.acp = cfg.acp;
  return c;
}
}  // namespace

RtCluster::RtCluster(RtClusterConfig cfg)
    : cfg_(cfg), env_(cfg.n_nodes, cfg.seed), net_(env_, cfg.net, cfg.seed),
      storage_(env_, storage_stats_, storage_trace_), sinks_(cfg.n_nodes),
      nodes_(env_, net_, storage_, node_config(cfg), /*fencing=*/nullptr,
             /*history=*/nullptr, [this](std::uint32_t i) {
               return NodeSinks{sinks_[i].stats, sinks_[i].trace};
             }) {}

RtCluster::~RtCluster() { env_.stop(); }

RtCluster::StormResult RtCluster::run_storm(const StormPlan& plan,
                                            std::uint32_t concurrency,
                                            Duration max_wall) {
  PlanReplay replay(nodes_, plan, concurrency);
  for (std::uint32_t i = 0; i < cfg_.n_nodes; ++i) {
    bootstrap_directory(plan.dirs[i], NodeId(i));
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint32_t i = 0; i < cfg_.n_nodes; ++i) {
    env_.post(i, [&replay, i] { replay.start(i); });
  }
  replay.wait(max_wall);
  const double wall =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - t0)
          .count();

  // Let lazy WAL flushes, checkpoints and stragglers finish before reading
  // any per-node state from this thread.
  env_.wait_idle();

  StormResult res;
  res.wall_seconds = wall;
  for (std::uint32_t i = 0; i < cfg_.n_nodes; ++i) {
    const AcpEngine& eng = node(NodeId(i)).engine();
    res.committed += eng.committed_count();
    res.aborted += eng.aborted_count();
    res.latency.merge(eng.client_latency());
    res.stats.merge(sinks_[i].stats);
  }
  res.stats.merge(storage_stats_);
  net_.export_stats(res.stats);
  env_.export_stats(res.stats);
  res.ops_per_second =
      wall > 0.0 ? static_cast<double>(res.committed) / wall : 0.0;
  return res;
}

}  // namespace opc
