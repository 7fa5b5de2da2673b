// Counting, timestamping decorators around the runtime seam, used by the
// traced storm run (storm.cc).
//
// TimedEnv wraps RtEnv: every timer a node arms through Env records its
// lateness (fire time minus due time) and the wall time its callback runs.
// TimedTransport wraps RtTransport: every send is counted with its bytes,
// and every delivery records its hop lateness (delivery time minus send
// time minus the modeled latency) plus the handler's run time.  Both keep
// per-worker sinks indexed by RtEnv::current_worker(), so a sink is only
// ever touched by one thread; read them after RtEnv::wait_idle().
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "rt/rt_env.h"
#include "rt/rt_transport.h"
#include "stats/histogram.h"

namespace pb {

/// Per-worker measurements.  Padded so neighbouring workers do not share
/// a cache line.
struct alignas(64) WorkerSink {
  opc::Histogram timer_late_ns;
  opc::Histogram hop_late_ns;
  std::int64_t busy_ns = 0;  // callbacks + message handlers
};

class TimedEnv final : public opc::Env {
 public:
  explicit TimedEnv(opc::RtEnv& rt) : rt_(rt), sinks_(rt.workers()) {}

  [[nodiscard]] opc::SimTime now() const override { return rt_.now(); }
  opc::TimerHandle schedule_at(opc::SimTime when, Callback cb) override;
  bool cancel(opc::TimerHandle h) override { return rt_.cancel(h); }
  [[nodiscard]] opc::Rng& rng() override { return rt_.rng(); }

  /// Sink of the calling worker thread (worker 0 from outside the pool).
  WorkerSink& sink();
  [[nodiscard]] const std::vector<WorkerSink>& sinks() const { return sinks_; }

 private:
  opc::RtEnv& rt_;
  std::vector<WorkerSink> sinks_;
};

class TimedTransport final : public opc::Transport {
 public:
  TimedTransport(opc::RtTransport& inner, TimedEnv& env,
                 opc::Duration modeled_latency)
      : inner_(inner), env_(env), modeled_(modeled_latency) {}

  void attach(opc::NodeId node, Handler handler) override;
  void detach(opc::NodeId node) override { inner_.detach(node); }
  [[nodiscard]] bool attached(opc::NodeId node) const override {
    return inner_.attached(node);
  }
  void send(opc::Envelope env) override;

  [[nodiscard]] std::uint64_t sends() const { return sends_.load(); }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_.load(); }

 private:
  static std::uint64_t key(opc::NodeId a, opc::NodeId b) {
    return (static_cast<std::uint64_t>(a.value()) << 32) | b.value();
  }

  opc::RtTransport& inner_;
  TimedEnv& env_;
  opc::Duration modeled_;
  // Send times per directed channel.  RtTransport delivers each channel in
  // FIFO order, so the front entry belongs to the envelope being delivered.
  std::mutex mu_;
  std::unordered_map<std::uint64_t, std::deque<std::int64_t>> sent_at_;
  std::atomic<std::uint64_t> sends_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace pb
