// Graceful-shutdown audit: the served cluster must drain — not hang — when
// clients vanish mid-request and when stop() races in-flight transactions.
// RtEnv::wait_idle and RpcServer::stop are the two waits that could
// deadlock; both are exercised with work actually in flight on a slow
// modeled disk.  RtEnv::stop must also return when it lands while a worker
// is polling the clock toward a deadline.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "rpc/client.h"
#include "rpc/server.h"
#include "rt/rt_cluster.h"
#include "rt/rt_env.h"

namespace opc::rpc {
namespace {

// Spin (with a wall deadline) until `pred` holds.  flush() only proves the
// bytes reached the socket buffer; these tests must not stop() before the
// server has actually admitted the requests.
template <typename Pred>
bool wait_until(Pred pred, double timeout_s = 30.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

std::string test_sock(const char* tag) {
  return "/tmp/opc-" + std::string(tag) + "-" + std::to_string(::getpid()) +
         ".sock";
}

RtClusterConfig slow_config() {
  RtClusterConfig cfg;
  cfg.n_nodes = 2;
  cfg.protocol = ProtocolKind::kOnePC;
  cfg.net.latency = Duration::zero();
  // ~2 ms per 8 KiB commit force: slow enough that requests are reliably
  // still in flight when the test pulls the rug.
  cfg.disk.bytes_per_second = 4.0 * 1024 * 1024;
  cfg.seed = 11;
  return cfg;
}

TEST(RtShutdown, ConnectionDiesMidRequestWaitIdleStillReturns) {
  RtCluster cluster(slow_config());
  for (std::uint32_t i = 0; i < 2; ++i) {
    cluster.bootstrap_directory(ObjectId(i + 1), NodeId(i));
  }
  RpcServerConfig scfg;
  scfg.uds_path = test_sock("die");
  RpcServer server(cluster, scfg);
  ASSERT_TRUE(server.start());

  // Fire a pile of requests and slam the connection shut without reading a
  // single reply.  The admitted transactions keep running; their replies
  // must be dropped, not leaked or deadlocked on.
  {
    RpcClient client;
    ASSERT_TRUE(client.connect_uds(scfg.uds_path));
    for (int i = 0; i < 64; ++i) {
      client.send_create(1, "orphan_" + std::to_string(i), false);
    }
    ASSERT_TRUE(client.flush(30.0)) << client.error();
  }  // ~> abrupt close with up to 64 requests outstanding

  // UDS delivers the buffered requests even after the peer closed: the
  // server must read, admit, and run every one of them to completion with
  // nobody listening for the replies.
  ASSERT_TRUE(wait_until([&] { return server.committed() == 64; }))
      << "committed " << server.committed() << " of 64 orphaned requests";

  // stop() waits for inflight to drain; if a dead connection could wedge
  // the accounting, this (and the wait_idle after it) would hang and the
  // ctest timeout would flag it.
  server.stop();
  cluster.env().wait_idle();
  EXPECT_EQ(server.inflight(), 0u);

  std::uint64_t committed = 0;
  for (std::uint32_t i = 0; i < 2; ++i) {
    committed += cluster.node(NodeId(i)).engine().committed_count();
  }
  EXPECT_EQ(committed, 64u);
}

TEST(RtShutdown, StopDrainsInflightBeforeReturning) {
  RtCluster cluster(slow_config());
  for (std::uint32_t i = 0; i < 2; ++i) {
    cluster.bootstrap_directory(ObjectId(i + 1), NodeId(i));
  }
  RpcServerConfig scfg;
  scfg.uds_path = test_sock("drain");
  scfg.max_inflight = 256;
  RpcServer server(cluster, scfg);
  ASSERT_TRUE(server.start());

  RpcClient client;
  ASSERT_TRUE(client.connect_uds(scfg.uds_path));
  for (int i = 0; i < 32; ++i) {
    client.send_create(1, "drain_" + std::to_string(i), false);
  }
  ASSERT_TRUE(client.flush(30.0)) << client.error();

  // Wait for every request to be admitted (in flight or already done) so
  // stop() genuinely races live engine work rather than shedding unread
  // frames as SHUTDOWN.
  ASSERT_TRUE(wait_until(
      [&] { return server.committed() + server.inflight() >= 32; }));

  // stop() while those 32 are (mostly) still inside the engines: it must
  // block until each one completed, and the already-encoded replies should
  // still reach the client during the flush grace.
  server.stop();
  EXPECT_EQ(server.inflight(), 0u);

  int answered = 0;
  Reply r;
  while (client.recv_reply(r, 1.0)) {
    EXPECT_TRUE(r.status == Status::kOk || r.status == Status::kAborted);
    ++answered;
  }
  // The drain guarantee is about transactions, not delivery: a reply can
  // race the final socket close.  But in practice the flush grace lands
  // them; requiring >0 catches a stop() that drops everything.
  EXPECT_GT(answered, 0);

  cluster.env().wait_idle();
  std::uint64_t committed = 0;
  for (std::uint32_t i = 0; i < 2; ++i) {
    committed += cluster.node(NodeId(i)).engine().committed_count();
  }
  EXPECT_EQ(committed, 32u);
}

TEST(RtShutdown, EnvStopReturnsWhileWorkerPolls) {
  for (int trial = 0; trial < 20; ++trial) {
    RtEnv env(1);
    // Teach the worker its wake-up lateness with a chain of short sleeps,
    // so its later waits end in the poll phase.
    std::atomic<int> warm{64};
    struct Chain {
      RtEnv* env;
      std::atomic<int>* left;
      void next() {
        if (left->fetch_sub(1) <= 1) return;
        env->schedule_after(Duration::micros(50), [this] { next(); });
      }
    };
    Chain chain{&env, &warm};
    env.post(0, [&chain] { chain.next(); });
    env.wait_idle();

    std::atomic<int> ran{0};
    const SimTime when = env.now() + Duration::micros(20 + trial);
    env.schedule_on(0, when, [&ran] { ran.fetch_add(1); });
    const SimTime stop_at = when - Duration::micros(trial % 8);
    while (env.now() < stop_at) {
    }
    env.stop();  // must return: the poll sees stop() and the worker exits
    EXPECT_LE(ran.load(), 1);
  }
}

TEST(RtShutdown, StopIsIdempotentAndStartAfterStopFailsCleanly) {
  RtCluster cluster(slow_config());
  cluster.bootstrap_directory(ObjectId(1), NodeId(0));
  RpcServerConfig scfg;
  scfg.uds_path = test_sock("idem");
  RpcServer server(cluster, scfg);
  ASSERT_TRUE(server.start());
  server.stop();
  server.stop();  // second stop is a no-op, not a crash
  EXPECT_FALSE(server.start());  // one-shot lifecycle
  cluster.env().wait_idle();
}

}  // namespace
}  // namespace opc::rpc
