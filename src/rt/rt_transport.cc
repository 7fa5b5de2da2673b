#include "rt/rt_transport.h"

#include <memory>
#include <utility>

namespace opc {

void RtTransport::attach(NodeId node, Handler handler) {
  SIM_CHECK(handler != nullptr);
  SIM_CHECK_MSG(node.value() < env_.workers(),
                "node id beyond the worker pool");
  std::lock_guard<std::mutex> lk(mu_);
  handlers_[node] = std::move(handler);
}

void RtTransport::detach(NodeId node) {
  std::lock_guard<std::mutex> lk(mu_);
  handlers_.erase(node);
}

bool RtTransport::attached(NodeId node) const {
  std::lock_guard<std::mutex> lk(mu_);
  return handlers_.contains(node);
}

void RtTransport::send(Envelope env) {
  sent_.fetch_add(1, std::memory_order_relaxed);

  const std::uint32_t dest = env.to.value();
  SimTime when;
  {
    std::lock_guard<std::mutex> lk(mu_);
    when = link_.arrival(env_.now(), env.from, env.to, env.size_bytes, rng_);
  }

  auto boxed = std::make_unique<Envelope>(std::move(env));
  auto deliver_cb = [this, boxed = std::move(boxed)] {
    deliver(std::move(*boxed));
  };
  OPC_ASSERT_INLINE_CB(deliver_cb);
  env_.schedule_on(dest, when, std::move(deliver_cb));
}

void RtTransport::deliver(Envelope env) {
  Handler h;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = handlers_.find(env.to);
    if (it == handlers_.end()) {
      dropped_down_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    h = it->second;  // copy: the handler may detach/re-attach the node
  }
  delivered_.fetch_add(1, std::memory_order_relaxed);
  h(std::move(env));
}

void RtTransport::export_stats(StatsRegistry& stats) const {
  stats.add("net.sent", static_cast<std::int64_t>(
                            sent_.load(std::memory_order_relaxed)));
  stats.add("net.delivered", static_cast<std::int64_t>(
                                 delivered_.load(std::memory_order_relaxed)));
  const auto down = dropped_down_.load(std::memory_order_relaxed);
  if (down != 0) stats.add("net.dropped.down", static_cast<std::int64_t>(down));
}

}  // namespace opc
