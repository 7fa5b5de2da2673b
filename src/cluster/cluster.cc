#include "cluster/cluster.h"

namespace opc {

NodeGroup::NodeGroup(Env& env, Transport& net, SharedStorage& storage,
                     const ClusterConfig& cfg, FencingService* fencing,
                     HistoryRecorder* history,
                     const std::function<NodeSinks(std::uint32_t)>& sinks) {
  for (std::uint32_t i = 0; i < cfg.n_nodes; ++i) {
    const NodeId id(i);
    const NodeSinks s = sinks(i);
    LogPartition& part = storage.add_partition(id, cfg.disk, s.stats, s.trace);
    nodes_.push_back(std::make_unique<MdsNode>(
        env, id, cfg.protocol, cfg.acp, cfg.wal, cfg.heartbeat, net, storage,
        part, s.stats, s.trace, fencing, history, cfg.phase_log));
  }
  for (std::uint32_t i = 0; i < cfg.n_nodes; ++i) {
    std::vector<NodeId> peers;
    for (std::uint32_t j = 0; j < cfg.n_nodes; ++j) {
      if (j != i) peers.emplace_back(j);
    }
    nodes_[i]->set_peers(std::move(peers));
    nodes_[i]->start();
  }
}

std::vector<const MetaStore*> NodeGroup::stores() const {
  std::vector<const MetaStore*> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(&n->store());
  return out;
}

Cluster::Cluster(Simulator& sim, ClusterConfig cfg, StatsRegistry& stats,
                 TraceRecorder& trace)
    : sim_(sim), env_(sim, cfg.seed), cfg_(cfg), trace_(trace),
      net_(env_, cfg_.net, stats, trace, cfg_.seed),
      storage_(env_, stats, trace),
      fencing_(
          env_, storage_, stats, trace, cfg_.fencing,
          [this](NodeId id) { crash_node(id); },
          [this](NodeId id) { reboot_node(id); }),
      nodes_(env_, net_, storage_, cfg_, &fencing_,
             cfg_.record_history ? &history_ : nullptr,
             [&](std::uint32_t) { return NodeSinks{stats, trace}; }) {}

void Cluster::crash_node(NodeId id) {
  MdsNode& n = node(id);
  if (!n.alive()) return;
  trace_.record(sim_.now(), TraceKind::kCrash, id.str(), "node power off");
  n.crash();
}

void Cluster::reboot_node(NodeId id, std::function<void()> on_recovered) {
  MdsNode& n = node(id);
  if (n.alive()) return;
  if (fencing_.held(id)) return;  // STONITH holds the node down
  trace_.record(sim_.now(), TraceKind::kReboot, id.str(), "node power on");
  n.reboot(std::move(on_recovered));
}

void Cluster::schedule_crash(NodeId id, Duration after,
                             Duration reboot_after) {
  sim_.schedule_after(after, [this, id, reboot_after] {
    crash_node(id);
    if (reboot_after > Duration::zero()) {
      sim_.schedule_after(reboot_after, [this, id] { reboot_node(id); });
    }
  });
}

void Cluster::schedule_partition(NodeId a, NodeId b, Duration from,
                                 Duration until, bool asymmetric) {
  sim_.schedule_after(from, [this, a, b, asymmetric] {
    trace_.record(sim_.now(), TraceKind::kInfo, a.str(),
                  std::string(asymmetric ? "partition -> " : "partition <-> ") +
                      b.str());
    if (asymmetric) {
      net_.sever(a, b);
    } else {
      net_.sever_pair(a, b);
    }
  });
  if (until > from) {
    sim_.schedule_after(until, [this, a, b] {
      trace_.record(sim_.now(), TraceKind::kInfo, a.str(),
                    "partition healed <-> " + b.str());
      net_.heal_pair(a, b);
    });
  }
}

void Cluster::schedule_disk_degrade(NodeId id, Duration from, Duration until,
                                    double factor) {
  sim_.schedule_after(from, [this, id, factor] {
    trace_.record(sim_.now(), TraceKind::kInfo, id.str(),
                  "log device degraded x" + std::to_string(factor));
    storage_.partition(id).device().set_degrade_factor(factor);
  });
  if (until > from) {
    sim_.schedule_after(until, [this, id] {
      trace_.record(sim_.now(), TraceKind::kInfo, id.str(),
                    "log device restored");
      storage_.partition(id).device().set_degrade_factor(1.0);
    });
  }
}

void Cluster::schedule_heartbeat_mute(NodeId id, Duration from,
                                      Duration until) {
  sim_.schedule_after(from, [this, id] {
    trace_.record(sim_.now(), TraceKind::kInfo, id.str(),
                  "heartbeats muted");
    node(id).set_heartbeat_muted(true);
  });
  if (until > from) {
    sim_.schedule_after(until, [this, id] {
      trace_.record(sim_.now(), TraceKind::kInfo, id.str(),
                    "heartbeats resumed");
      node(id).set_heartbeat_muted(false);
    });
  }
}

}  // namespace opc
