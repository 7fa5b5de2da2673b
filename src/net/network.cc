#include "net/network.h"

#include <memory>
#include <utility>

namespace opc {

void Network::attach(NodeId node, Handler handler) {
  SIM_CHECK(handler != nullptr);
  handlers_[node] = std::move(handler);
}

void Network::detach(NodeId node) { handlers_.erase(node); }

void Network::send(Envelope env) {
  c_sent_.add();
  if (trace_.active()) {
    trace_.record(env_.now(), TraceKind::kMessageSend, env.from.str(),
                  env.kind + " -> " + env.to.str(), env.txn);
  }

  if (severed(env.from, env.to)) {
    stats_.add("net.dropped.partition");
    if (trace_.active()) {
      trace_.record(env_.now(), TraceKind::kMessageDrop, env.from.str(),
                    env.kind + " (partitioned) -> " + env.to.str(), env.txn);
    }
    return;
  }
  if (loss_probability_ > 0.0 && rng_.bernoulli(loss_probability_)) {
    stats_.add("net.dropped.loss");
    if (trace_.active()) {
      trace_.record(env_.now(), TraceKind::kMessageDrop, env.from.str(),
                    env.kind + " (lost) -> " + env.to.str(), env.txn);
    }
    return;
  }
  if (drop_filter_ && drop_filter_(env)) {
    stats_.add("net.dropped.filter");
    if (trace_.active()) {
      trace_.record(env_.now(), TraceKind::kMessageDrop, env.from.str(),
                    env.kind + " (filtered) -> " + env.to.str(), env.txn);
    }
    return;
  }

  const SimTime when =
      link_.arrival(env_.now(), env.from, env.to, env.size_bytes, rng_);

  // Box the envelope: a 16-byte {this, unique_ptr} capture stays on the
  // kernel's allocation-free inline-callback path.  Boxes are recycled
  // through box_pool_, so steady state moves the envelope without any heap
  // traffic (the envelope's inline MessageBody carries the payload).
  std::unique_ptr<Envelope> boxed;
  if (!box_pool_.empty()) {
    boxed = std::move(box_pool_.back());
    box_pool_.pop_back();
    *boxed = std::move(env);
  } else {
    boxed = std::make_unique<Envelope>(std::move(env));
  }
  auto deliver_cb = [this, boxed = std::move(boxed)]() mutable {
    Envelope e = std::move(*boxed);
    box_pool_.push_back(std::move(boxed));
    deliver(std::move(e));
  };
  OPC_ASSERT_INLINE_CB(deliver_cb);
  env_.schedule_at(when, std::move(deliver_cb));
}

void Network::deliver(Envelope env) {
  // A partition raised *after* the send also kills in-flight traffic: the
  // packet is on the wire while the link goes dark.
  if (severed(env.from, env.to)) {
    stats_.add("net.dropped.partition");
    if (trace_.active()) {
      trace_.record(env_.now(), TraceKind::kMessageDrop, env.to.str(),
                    env.kind + " (partitioned in flight) from " +
                        env.from.str(),
                    env.txn);
    }
    return;
  }
  auto it = handlers_.find(env.to);
  if (it == handlers_.end()) {
    stats_.add("net.dropped.down");
    if (trace_.active()) {
      trace_.record(env_.now(), TraceKind::kMessageDrop, env.to.str(),
                    env.kind + " (node down) from " + env.from.str(),
                    env.txn);
    }
    return;
  }
  c_delivered_.add();
  if (trace_.active()) {
    trace_.record(env_.now(), TraceKind::kMessageRecv, env.to.str(),
                  env.kind + " <- " + env.from.str(), env.txn);
  }
  // Copy the handler: the callback may detach/re-attach the node.
  Handler h = it->second;
  h(std::move(env));
}

}  // namespace opc
