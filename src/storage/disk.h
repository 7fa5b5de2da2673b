// Simulated log device.
//
// The paper models stable storage by a single figure: the latency of a log
// write is the block size divided by the device bandwidth (400 KB/s in the
// evaluation; the footnote motivates folding seek/rotational costs into
// that one number because shared-storage access is highly random).  Disk
// reproduces that model and adds the queueing behaviour that matters when
// 100 transactions hammer one log partition: requests are serviced strictly
// FIFO, one at a time, so concurrent forced writes wait for the device.
//
// Crash semantics — on owner crash the WAL layer calls cancel_owner():
// queued requests vanish (the data never reached the device) and the
// in-service request is aborted without side effects (its completion
// callback never fires, so the record is not durable).  "Durable" is
// defined as "the completion callback ran", full stop.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "env/env.h"
#include "net/types.h"
#include "sim/inline_callback.h"
#include "sim/trace.h"
#include "stats/counters.h"

namespace opc {

struct DiskConfig {
  double bytes_per_second = 400.0 * 1024.0;  // paper's 400 KB/s
  Duration fixed_latency = Duration::zero(); // per-op overhead, if any
};

class Disk {
 public:
  using Completion = InlineCallback<void(), kInlineCallbackBytes>;

  Disk(Env& env, std::string name, DiskConfig cfg, StatsRegistry& stats,
       TraceRecorder& trace)
      : env_(env), name_(std::move(name)), cfg_(cfg), stats_(stats),
        trace_(trace),
        sn_writes_("disk." + name_ + ".writes"),
        sn_reads_("disk." + name_ + ".reads"),
        sn_completed_("disk." + name_ + ".completed"),
        sn_cancelled_("disk." + name_ + ".cancelled"),
        sn_aborted_("disk." + name_ + ".aborted_in_service"),
        c_writes_(stats, sn_writes_),
        c_reads_(stats, sn_reads_),
        c_completed_(stats, sn_completed_),
        c_cancelled_(stats, sn_cancelled_),
        c_aborted_(stats, sn_aborted_) {}

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Enqueues a write of `size_bytes` on behalf of `owner`.  `on_durable`
  /// fires exactly when the data is stable; it never fires if the owner is
  /// cancelled first.
  void write(NodeId owner, std::uint64_t size_bytes, std::string kind,
             Completion on_durable);

  /// Enqueues a read of `size_bytes` (used for recovery-time log scans).
  void read(NodeId owner, std::uint64_t size_bytes, std::string kind,
            Completion on_done);

  /// Drops every pending and in-service request from `owner` (crash/fence).
  /// Their completions never fire.
  void cancel_owner(NodeId owner);

  /// Service time for a request of the given size under this configuration,
  /// including any active degradation.
  [[nodiscard]] Duration service_time(std::uint64_t size_bytes) const {
    const Duration base =
        cfg_.fixed_latency +
        Duration::from_seconds_f(static_cast<double>(size_bytes) /
                                 cfg_.bytes_per_second);
    if (degrade_factor_ == 1.0) return base;
    return Duration::from_seconds_f(base.to_seconds_f() * degrade_factor_);
  }

  /// Chaos hook: multiplies service times by `factor` (>= 1 slows the
  /// device down, e.g. a failing or contended spindle) until reset to 1.
  /// Applies to requests *started* after the call; the in-service transfer
  /// keeps its original completion time.
  void set_degrade_factor(double factor) {
    SIM_CHECK(factor > 0.0);
    degrade_factor_ = factor;
  }

  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] bool busy() const { return in_service_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const DiskConfig& config() const { return cfg_; }

  /// Total simulated time the device spent servicing requests.
  [[nodiscard]] Duration busy_time() const { return busy_time_; }

 private:
  struct Request {
    NodeId owner;
    std::uint64_t size;
    std::string kind;
    bool is_read;
    Completion done;
    std::uint64_t id;
  };

  void maybe_start();
  void finish(std::uint64_t id);

  Env& env_;
  std::string name_;
  DiskConfig cfg_;
  StatsRegistry& stats_;
  TraceRecorder& trace_;
  // Counter names are composed from name_ once; Counter holds a view into
  // them, so they must live as long as the counters below.
  const std::string sn_writes_;
  const std::string sn_reads_;
  const std::string sn_completed_;
  const std::string sn_cancelled_;
  const std::string sn_aborted_;
  Counter c_writes_;
  Counter c_reads_;
  Counter c_completed_;
  Counter c_cancelled_;
  Counter c_aborted_;
  std::deque<Request> queue_;
  double degrade_factor_ = 1.0;
  bool in_service_ = false;
  std::uint64_t in_service_id_ = 0;
  NodeId in_service_owner_;
  bool in_service_cancelled_ = false;
  SimTime service_started_ = SimTime::zero();
  Duration busy_time_ = Duration::zero();
  std::uint64_t next_id_ = 1;
  // Retained across cancel: completion of the current (possibly cancelled)
  // request is found by id.
  Completion in_service_done_;
  std::string in_service_kind_;
};

}  // namespace opc
