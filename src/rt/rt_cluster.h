// Real-time cluster: N MdsNodes on RtEnv workers, one per node.
//
// The node wiring is the simulated Cluster's own NodeGroup
// (src/cluster/cluster.h), and run_storm drives the plan with the same
// PlanReplay loop the sim/rt differential test runs on the simulator
// (src/rt/storm_plan.h): only the executor (RtEnv) and the fabric
// (RtTransport) differ.  Each node gets a private StatsRegistry /
// TraceRecorder and a log partition whose disk model reports into them, so
// every mutable sink is confined to one worker thread; results are merged
// after the run goes quiescent.
//
// v1 scope is the quiescent live storm: heartbeats off, fencing absent,
// no crash injection — the protocols' normal-case paths at real speed.
// Chaos and recovery exercises stay on the simulator, where faults are
// deterministic and replayable (docs/RUNTIME.md §4).
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "rt/rt_env.h"
#include "rt/rt_transport.h"
#include "rt/storm_plan.h"
#include "stats/histogram.h"

namespace opc {

struct RtClusterConfig {
  std::uint32_t n_nodes = 2;
  ProtocolKind protocol = ProtocolKind::kOnePC;
  NetworkConfig net;  // delays applied as real timer delays
  DiskConfig disk;
  WalConfig wal;
  AcpConfig acp;  // keep timeouts disabled: the storm runs quiescent
  std::uint64_t seed = 1;
};

class RtCluster {
 public:
  explicit RtCluster(RtClusterConfig cfg);
  ~RtCluster();

  RtCluster(const RtCluster&) = delete;
  RtCluster& operator=(const RtCluster&) = delete;

  struct StormResult {
    std::uint64_t committed = 0;
    std::uint64_t aborted = 0;
    Histogram latency;    // client-visible commit latency, merged
    StatsRegistry stats;  // all nodes + transport, merged
    double wall_seconds = 0.0;
    double ops_per_second = 0.0;
  };

  /// Runs the plan as a closed loop with `concurrency` outstanding
  /// transactions per node; blocks until every node drained its share (or
  /// `max_wall` elapsed, when nonzero — in-flight work still drains) and
  /// the cluster is quiescent.  Call at most once per RtCluster.
  StormResult run_storm(const StormPlan& plan, std::uint32_t concurrency,
                        Duration max_wall = Duration::zero());

  [[nodiscard]] std::uint32_t size() const { return nodes_.size(); }
  [[nodiscard]] MdsNode& node(NodeId id) { return nodes_.node(id); }
  [[nodiscard]] RtEnv& env() { return env_; }

  /// Seeds a directory inode on its home MDS (call before run_storm).
  void bootstrap_directory(ObjectId dir, NodeId home) {
    nodes_.bootstrap_directory(dir, home);
  }

  [[nodiscard]] std::vector<const MetaStore*> stores() const {
    return nodes_.stores();
  }
  [[nodiscard]] std::vector<InvariantViolation> check_invariants(
      const std::vector<ObjectId>& roots) const {
    return nodes_.check_invariants(roots);
  }

 private:
  struct Sinks {
    StatsRegistry stats;
    TraceRecorder trace{false};
  };

  RtClusterConfig cfg_;
  RtEnv env_;
  RtTransport net_;
  // Sinks for SharedStorage itself (per-partition disks report into the
  // owning node's sinks instead).
  StatsRegistry storage_stats_;
  TraceRecorder storage_trace_{false};
  SharedStorage storage_;
  std::vector<Sinks> sinks_;  // node i's; touched only on worker i
  NodeGroup nodes_;
};

}  // namespace opc
