// Presumed Abort (extension protocol) specifics: aborts are free of log
// records and acknowledgements; absence of information means abort; the
// commit path costs exactly what PrN costs.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "core/timeline.h"
#include "mds/namespace.h"

namespace opc {
namespace {

struct PraFixture {
  Simulator sim;
  StatsRegistry stats;
  TraceRecorder trace{false};
  std::unique_ptr<Cluster> cluster;
  IdAllocator ids;
  std::unique_ptr<PinnedPartitioner> part;
  std::unique_ptr<NamespacePlanner> planner;
  ObjectId dir;

  PraFixture() {
    ClusterConfig cc;
    cc.n_nodes = 2;
    cc.protocol = ProtocolKind::kPrA;
    cc.acp.response_timeout = Duration::millis(300);
    cc.acp.retry_interval = Duration::millis(100);
    cluster = std::make_unique<Cluster>(sim, cc, stats, trace);
    dir = ids.next();
    part = std::make_unique<PinnedPartitioner>(2, NodeId(1));
    part->assign(dir, NodeId(0));
    cluster->bootstrap_directory(dir, NodeId(0));
    planner = std::make_unique<NamespacePlanner>(*part, OpCosts{});
  }
};

TEST(PresumedAbort, CommitCostsMatchPrN) {
  const TimelineResult pra = run_single_create(ProtocolKind::kPrA);
  const TimelineResult prn = run_single_create(ProtocolKind::kPrN);
  EXPECT_EQ(pra.sync_writes, prn.sync_writes);
  EXPECT_EQ(pra.async_writes, prn.async_writes);
  EXPECT_EQ(pra.extra_msgs, prn.extra_msgs);
  EXPECT_EQ(pra.client_latency, prn.client_latency);
}

TEST(PresumedAbort, AbortWritesNoRecordsAndNeedsNoAcks) {
  PraFixture f;
  // Force a worker veto: the inode id already exists there.
  f.cluster->store(NodeId(1)).bootstrap_inode(Inode{ObjectId(99), false, 1, 0});
  f.cluster->store(NodeId(0)).bootstrap_dentry(f.dir, "seed", ObjectId(99));
  TxnOutcome outcome = TxnOutcome::kPending;
  f.cluster->submit(f.planner->plan_create(f.dir, "x", ObjectId(99), false),
                    [&](TxnId, TxnOutcome o) { outcome = o; });
  f.sim.run();
  ASSERT_TRUE(f.sim.idle());

  EXPECT_EQ(outcome, TxnOutcome::kAborted);
  // No ABORTED records anywhere and no ACK traffic: the decisive PrA saving.
  EXPECT_EQ(f.stats.get("wal.lazy.count"), 0)
      << "PrA must not write abort records";
  EXPECT_EQ(f.stats.get("acp.msg.total"), 2)
      << "UPDATE_REQ + NOT_UPDATED and nothing else";
  // Both logs are empty again (coordinator truncated STARTED on abort).
  EXPECT_TRUE(
      f.cluster->storage().partition(NodeId(0)).records().empty());
  EXPECT_TRUE(
      f.cluster->storage().partition(NodeId(1)).records().empty());
  EXPECT_TRUE(f.cluster->check_invariants({f.dir}).empty());
}

TEST(PresumedAbort, AbsenceOfInformationMeansAbort) {
  PraFixture f;
  TxnOutcome outcome = TxnOutcome::kPending;
  f.cluster->submit(f.planner->plan_create(f.dir, "y", f.ids.next(), false),
                    [&](TxnId, TxnOutcome o) { outcome = o; });
  // Crash the coordinator after sending PREPARE (20.3 ms) but before its
  // own prepare is durable (40.3 ms): the log holds only STARTED while the
  // worker prepares into the void.  Recovery presumes abort with no abort
  // record ever written.
  f.cluster->schedule_crash(NodeId(0), Duration::millis(30),
                            /*reboot_after=*/Duration::millis(400));
  f.sim.run_until(SimTime::zero() + Duration::seconds(30));
  ASSERT_TRUE(f.sim.idle());

  // The coordinator rebooted with STARTED in its log -> presumed abort,
  // truncated.  The worker's DECISION_REQ got "aborted" either from the
  // rebuilt state or from pure absence.
  EXPECT_FALSE(
      f.cluster->store(NodeId(0)).stable_lookup(f.dir, "y").has_value());
  EXPECT_EQ(f.cluster->store(NodeId(1)).stable_inode_count(), 0u);
  EXPECT_TRUE(f.cluster->check_invariants({f.dir}).empty());
  EXPECT_EQ(f.cluster->engine(NodeId(1)).active_participations(), 0u)
      << "the prepared worker resolved via presumption";
}

// A three-participant RENAME where one worker vetoes: mds0 coordinates,
// mds1 (destination directory) vetoes because the target name exists, and
// mds2 (the moved inode's SetAttr) is the innocent bystander that updates
// and then needs the ABORT.  Each run() submits it once more.
struct VetoedRename {
  Simulator sim;
  StatsRegistry stats;
  TraceRecorder trace{false};
  std::unique_ptr<Cluster> cluster;
  IdAllocator ids;
  PinnedPartitioner part{3, NodeId(2)};
  std::unique_ptr<NamespacePlanner> planner;
  ObjectId src_dir, dst_dir, moved;

  explicit VetoedRename(ProtocolKind proto) {
    ClusterConfig cc;
    cc.n_nodes = 3;
    cc.protocol = proto;
    cluster = std::make_unique<Cluster>(sim, cc, stats, trace);
    src_dir = ids.next();   // mds0 (coordinator)
    dst_dir = ids.next();   // mds1 (will veto)
    moved = ids.next();     // mds2 (innocent SetAttr)
    part.assign(src_dir, NodeId(0));
    part.assign(dst_dir, NodeId(1));
    part.assign(moved, NodeId(2));
    cluster->bootstrap_directory(src_dir, NodeId(0));
    cluster->bootstrap_directory(dst_dir, NodeId(1));
    cluster->store(NodeId(0)).bootstrap_dentry(src_dir, "a", moved);
    cluster->store(NodeId(2)).bootstrap_inode(Inode{moved, false, 1, 0});
    // The destination name already exists -> AddDentry vetoes at mds1.
    const ObjectId squatter = ids.next();
    part.assign(squatter, NodeId(2));
    cluster->store(NodeId(1)).bootstrap_dentry(dst_dir, "b", squatter);
    cluster->store(NodeId(2)).bootstrap_inode(Inode{squatter, false, 1, 0});
    planner = std::make_unique<NamespacePlanner>(part, OpCosts{});
  }

  TxnOutcome run() {
    TxnOutcome outcome = TxnOutcome::kPending;
    cluster->submit(
        planner->plan_rename(src_dir, "a", dst_dir, "b", moved, std::nullopt),
        [&](TxnId, TxnOutcome o) { outcome = o; });
    sim.run();
    return outcome;
  }
};

TEST(PresumedAbort, MultiWorkerAbortIsCheaperThanPrN) {
  // The innocent bystander worker still needs the ABORT, but under PrA it
  // sends no ACK and the coordinator logs nothing — strictly fewer messages
  // than PrN.
  auto run_abort = [](ProtocolKind proto) {
    VetoedRename f(proto);
    EXPECT_EQ(f.run(), TxnOutcome::kAborted) << protocol_name(proto);
    EXPECT_TRUE(
        f.cluster->check_invariants({f.src_dir, f.dst_dir}).empty());
    return f.stats.get("acp.msg.total");
  };
  const std::int64_t pra_msgs = run_abort(ProtocolKind::kPrA);
  const std::int64_t prn_msgs = run_abort(ProtocolKind::kPrN);
  EXPECT_LT(pra_msgs, prn_msgs)
      << "PrA abort must save the ACK round (PrA=" << pra_msgs
      << " PrN=" << prn_msgs << ")";
}

TEST(PresumedAbort, WorkerAbortReturnsWorkerStateToPool) {
  // The bystander's worker state must go back to the engine's pool when
  // the ABORT arrives, so K aborts allocate no more of it than one does.
  VetoedRename f(ProtocolKind::kPrA);
  const AcpEngine& bystander = f.cluster->engine(NodeId(2));
  ASSERT_EQ(f.run(), TxnOutcome::kAborted);
  const std::size_t created = bystander.work_pool_created();
  constexpr int kRepeats = 20;
  for (int k = 0; k < kRepeats; ++k) {
    ASSERT_EQ(f.run(), TxnOutcome::kAborted);
  }
  EXPECT_EQ(f.stats.get("acp.worker.aborts"), kRepeats + 1)
      << "every run must abort a worker that holds state";
  EXPECT_EQ(bystander.active_participations(), 0u);
  EXPECT_EQ(bystander.work_pool_created(), created)
      << "a PrA worker abort leaked its pooled WorkTxn";
  EXPECT_TRUE(f.cluster->check_invariants({f.src_dir, f.dst_dir}).empty());
}

}  // namespace
}  // namespace opc
