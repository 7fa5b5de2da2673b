// Cluster wiring: N metadata servers over one network and one shared
// storage device, with failure-injection controls.  NodeGroup is the node
// wiring itself, which the live RtCluster (src/rt/rt_cluster.h) shares.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "acp/config.h"
#include "acp/protocol.h"
#include "cluster/fencing.h"
#include "env/sim_env.h"
#include "net/network.h"
#include "cluster/node.h"
#include "mds/invariants.h"
#include "txn/serializability.h"

namespace opc {

struct ClusterConfig {
  std::uint32_t n_nodes = 4;
  ProtocolKind protocol = ProtocolKind::kOnePC;
  NetworkConfig net;       // paper: 100 µs latency
  DiskConfig disk;         // paper: 400 KB/s log devices
  WalConfig wal;
  AcpConfig acp;
  HeartbeatConfig heartbeat;
  FencingConfig fencing;
  bool record_history = false;  // feed the serializability checker
  std::uint64_t seed = 1;
  // Observability opt-in: when set, every engine logs protocol phase
  // boundaries here for post-run span assembly (docs/OBSERVABILITY.md §3).
  // Null (the default) keeps the hot path at a single pointer compare and
  // leaves trace hashes and bench baselines untouched.
  obs::PhaseLog* phase_log = nullptr;
};

/// Where one node's log partition and MdsNode report.
struct NodeSinks {
  StatsRegistry& stats;
  TraceRecorder& trace;
};

/// N MdsNodes over one Env, Transport and SharedStorage.
class NodeGroup {
 public:
  /// Builds, in id order, each node's log partition and MdsNode reporting
  /// to sinks(i), then gives every node its peers and starts it.  Reads
  /// cfg's n_nodes, protocol, acp, wal, disk, heartbeat and phase_log.
  NodeGroup(Env& env, Transport& net, SharedStorage& storage,
            const ClusterConfig& cfg, FencingService* fencing,
            HistoryRecorder* history,
            const std::function<NodeSinks(std::uint32_t)>& sinks);

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  [[nodiscard]] MdsNode& node(NodeId id) const {
    return *nodes_.at(id.value());
  }

  /// Seeds a directory inode on its home MDS (root directories etc.).
  void bootstrap_directory(ObjectId dir, NodeId home) const {
    node(home).store().bootstrap_inode(Inode{dir, /*is_dir=*/true, 1, 0});
  }

  /// Stable-state snapshot of every MDS, for the invariant checker.
  [[nodiscard]] std::vector<const MetaStore*> stores() const;

  /// Runs the namespace invariant checker over all stable state.
  [[nodiscard]] std::vector<InvariantViolation> check_invariants(
      const std::vector<ObjectId>& roots) const {
    return opc::check_invariants(stores(), roots);
  }

 private:
  std::vector<std::unique_ptr<MdsNode>> nodes_;
};

class Cluster {
 public:
  /// The cluster stays constructible from a bare Simulator — it owns the
  /// SimEnv adapter internally, so the dozens of simulation tests and
  /// benches keep their wiring while every component below runs against
  /// Env.  Every node reports to `stats` and `trace`.
  Cluster(Simulator& sim, ClusterConfig cfg, StatsRegistry& stats,
          TraceRecorder& trace);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] std::uint32_t size() const { return nodes_.size(); }
  [[nodiscard]] MdsNode& node(NodeId id) { return nodes_.node(id); }
  [[nodiscard]] NodeGroup& nodes() { return nodes_; }
  [[nodiscard]] AcpEngine& engine(NodeId id) { return node(id).engine(); }
  [[nodiscard]] MetaStore& store(NodeId id) { return node(id).store(); }
  [[nodiscard]] SharedStorage& storage() { return storage_; }
  [[nodiscard]] Network& network() { return net_; }
  [[nodiscard]] Env& env() { return env_; }
  [[nodiscard]] StonithController& fencing() { return fencing_; }
  [[nodiscard]] HistoryRecorder* history() {
    return cfg_.record_history ? &history_ : nullptr;
  }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }

  /// Submits a transaction to its coordinator's engine.
  TxnId submit(Transaction txn, AcpEngine::ClientCallback cb) {
    SIM_CHECK(!txn.participants.empty());
    return engine(txn.coordinator()).submit(std::move(txn), std::move(cb));
  }

  /// Seeds a directory inode on its home MDS (root directories etc.).
  void bootstrap_directory(ObjectId dir, NodeId home) {
    nodes_.bootstrap_directory(dir, home);
  }

  // --- Failure injection ---
  // One-shot hooks plus first-class *scheduled* variants; the chaos
  // nemesis (src/chaos) compiles declarative fault schedules down to
  // these instead of ad-hoc lambdas.
  void crash_node(NodeId id);                  // no-op if already down
  void reboot_node(NodeId id,
                   std::function<void()> on_recovered = nullptr);
  void schedule_crash(NodeId id, Duration after,
                      Duration reboot_after = Duration::zero());
  void partition_pair(NodeId a, NodeId b) { net_.sever_pair(a, b); }
  void heal_pair(NodeId a, NodeId b) { net_.heal_pair(a, b); }
  /// Severs a<->b (or only a->b when `asymmetric`) during [from, until).
  /// `until` <= `from` means the partition stays until healed explicitly.
  void schedule_partition(NodeId a, NodeId b, Duration from, Duration until,
                          bool asymmetric = false);
  /// Multiplies node `id`'s log-device service times by `factor` during
  /// [from, until) — a slow/failing spindle, not a crash.
  void schedule_disk_degrade(NodeId id, Duration from, Duration until,
                             double factor);
  /// Suppresses node `id`'s outgoing heartbeats during [from, until): the
  /// node stays up but peers falsely suspect it (split-brain exercise).
  void schedule_heartbeat_mute(NodeId id, Duration from, Duration until);

  [[nodiscard]] std::vector<const MetaStore*> stores() const {
    return nodes_.stores();
  }
  [[nodiscard]] std::vector<InvariantViolation> check_invariants(
      const std::vector<ObjectId>& roots) const {
    return nodes_.check_invariants(roots);
  }

 private:
  Simulator& sim_;
  SimEnv env_;
  ClusterConfig cfg_;
  TraceRecorder& trace_;
  HistoryRecorder history_;
  Network net_;
  SharedStorage storage_;
  StonithController fencing_;
  NodeGroup nodes_;
};

}  // namespace opc
