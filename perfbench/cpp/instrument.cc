#include "instrument.h"

#include <utility>

namespace pb {

WorkerSink& TimedEnv::sink() {
  const std::uint32_t w = rt_.current_worker();
  return sinks_[w == opc::RtEnv::kNoWorker ? 0 : w];
}

opc::TimerHandle TimedEnv::schedule_at(opc::SimTime when, Callback cb) {
  return rt_.schedule_at(when, [this, when, cb = std::move(cb)]() mutable {
    const opc::SimTime fired = rt_.now();
    WorkerSink& s = sink();
    s.timer_late_ns.record(fired - when);
    cb();
    s.busy_ns += (rt_.now() - fired).count_nanos();
  });
}

void TimedTransport::attach(opc::NodeId node, Handler handler) {
  inner_.attach(node, [this, handler = std::move(handler)](opc::Envelope e) {
    const opc::SimTime at = env_.now();
    std::int64_t sent = at.count_nanos();
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto& q = sent_at_[key(e.from, e.to)];
      if (!q.empty()) {
        sent = q.front();
        q.pop_front();
      }
    }
    WorkerSink& s = env_.sink();
    s.hop_late_ns.record(static_cast<double>(at.count_nanos() - sent -
                                             modeled_.count_nanos()));
    handler(std::move(e));
    s.busy_ns += (env_.now() - at).count_nanos();
  });
}

void TimedTransport::send(opc::Envelope env) {
  sends_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(env.size_bytes, std::memory_order_relaxed);
  {
    // Stamp before handing over: the delivery may run before send returns.
    std::lock_guard<std::mutex> lk(mu_);
    sent_at_[key(env.from, env.to)].push_back(env_.now().count_nanos());
  }
  inner_.send(std::move(env));
}

}  // namespace pb
