// RtTransport: the shared LinkModel (net/link_model.h) applied as real
// timers — no message arrives before latency + size / bandwidth, and one
// directed channel stays FIFO even with jitter on.
#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <vector>

#include "rt/rt_env.h"
#include "rt/rt_transport.h"

namespace opc {
namespace {

Envelope make_envelope(std::uint32_t from, std::uint32_t to, int seq,
                       std::uint64_t size) {
  Envelope env;
  env.from = NodeId(from);
  env.to = NodeId(to);
  env.kind = "PING";
  env.size_bytes = size;
  env.payload.emplace<int>(seq);
  return env;
}

TEST(RtTransportTest, NoMessageArrivesBeforeLatencyPlusBytesOverBandwidth) {
  RtEnv env(2);
  NetworkConfig cfg;
  cfg.latency = Duration::millis(1);
  cfg.bytes_per_second = 1'000'000;  // 1 MB/s: 1 µs per byte
  RtTransport net(env, cfg);

  constexpr int kMessages = 4;
  const std::uint64_t sizes[kMessages] = {0, 500, 2000, 4000};
  std::mutex mu;
  std::vector<SimTime> arrived(kMessages, SimTime::zero());
  net.attach(NodeId(1), [&](Envelope e) {
    const SimTime now = env.now();
    std::lock_guard<std::mutex> lk(mu);
    arrived[*e.payload.get<int>()] = now;
  });
  ASSERT_TRUE(net.attached(NodeId(1)));
  ASSERT_FALSE(net.attached(NodeId(0)));

  std::vector<SimTime> sent(kMessages, SimTime::zero());
  for (int i = 0; i < kMessages; ++i) {
    sent[i] = env.now();
    net.send(make_envelope(0, 1, i, sizes[i]));
  }
  env.wait_idle();

  std::lock_guard<std::mutex> lk(mu);
  for (int i = 0; i < kMessages; ++i) {
    const Duration floor =
        cfg.latency + Duration::micros(static_cast<std::int64_t>(sizes[i]));
    ASSERT_NE(arrived[i], SimTime::zero()) << "message " << i << " lost";
    EXPECT_GE(arrived[i] - sent[i], floor) << "message " << i;
  }
}

TEST(RtTransportTest, OneChannelStaysFifoWithJitter) {
  RtEnv env(2);
  NetworkConfig cfg;
  cfg.latency = Duration::micros(100);
  cfg.jitter_max = Duration::millis(2);  // far above the send spacing
  RtTransport net(env, cfg, /*seed=*/5);

  constexpr int kMessages = 200;
  std::mutex mu;
  std::vector<int> order;
  net.attach(NodeId(1), [&](Envelope e) {
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(*e.payload.get<int>());
  });
  // Send from node 0's own worker, as an engine would.
  env.post(0, [&] {
    for (int i = 0; i < kMessages; ++i) net.send(make_envelope(0, 1, i, 64));
  });
  env.wait_idle();

  std::lock_guard<std::mutex> lk(mu);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) EXPECT_EQ(order[i], i);
}

}  // namespace
}  // namespace opc
