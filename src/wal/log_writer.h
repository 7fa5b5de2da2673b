// The per-MDS "log manager": forced and lazy write-ahead logging.
//
// Semantics follow the paper's cost accounting:
//
//   * force()   — a synchronous log write.  The caller's continuation runs
//     only when the record set is durable; timing goes through the
//     partition's disk (size / bandwidth, FIFO queue).  Forces are padded
//     to whole device blocks (cf. DESIGN.md §5 calibration).
//   * lazy()    — an asynchronous log write.  The record sits in a volatile
//     buffer; it becomes durable for free by riding the next force's block,
//     or via a periodic background flush.  A crash loses whatever is still
//     buffered — which is precisely why the protocols only write ENDED (and
//     PrC's worker COMMITTED) lazily.
//
// Group commit (extension, used by the batching ablation): when enabled,
// forces that arrive while one is in flight coalesce into a single device
// write instead of queueing individually.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/inline_callback.h"
#include "wal/partition.h"

namespace opc {

struct WalConfig {
  std::uint64_t force_pad_to = 8192;        // device block; 0 = no padding
  bool group_commit = false;                // coalesce concurrent forces
  Duration lazy_flush_interval = Duration::millis(10);
};

/// Classification attached to each log write, consumed by the Table I
/// instrumentation.  `critical` marks writes on the serial chain between
/// client request and client reply (an analytical property of the protocol,
/// mirrored from the paper's accounting).
struct WriteTag {
  std::string label;      // "started", "prepare", "commit", "ended", ...
  bool critical = true;
};

class LogWriter {
 public:
  using ForceCallback = InlineCallback<void(), kInlineCallbackBytes>;

  LogWriter(Env& env, NodeId owner, LogPartition& part,
            StatsRegistry& stats, TraceRecorder& trace, WalConfig cfg)
      : env_(env), owner_(owner), part_(part), stats_(stats), trace_(trace),
        cfg_(cfg),
        c_force_count_(stats, "wal.force.count"),
        c_force_critical_(stats, "wal.force.critical"),
        c_force_bytes_(stats, "wal.force.bytes"),
        c_lazy_count_(stats, "wal.lazy.count"),
        c_lazy_critical_(stats, "wal.lazy.critical") {}

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  /// A record vector with retained capacity, recycled from completed
  /// forces.  Building force() batches out of these keeps the steady state
  /// off the allocator.
  [[nodiscard]] std::vector<LogRecord> checkout_recs();

  /// Synchronous (forced) write.  `on_durable` fires when stable; it never
  /// fires if the writer crashes or is fenced first.  Any lazily buffered
  /// records ride along in the same block for free.
  void force(std::vector<LogRecord> recs, WriteTag tag,
             ForceCallback on_durable);

  /// Asynchronous write: buffered now, durable later (next force or
  /// background flush), lost on crash.
  void lazy(LogRecord rec, WriteTag tag);

  /// Crash: volatile state (lazy buffer, queued/pending forces and their
  /// continuations) evaporates; durable partition content is untouched.
  void crash();

  /// Clears the crashed flag after reboot.  The partition must have been
  /// unfenced by the cluster layer if it was fenced.
  void reboot() { crashed_ = false; }

  [[nodiscard]] bool crashed() const { return crashed_; }
  [[nodiscard]] NodeId owner() const { return owner_; }
  [[nodiscard]] LogPartition& partition() { return part_; }
  [[nodiscard]] const WalConfig& config() const { return cfg_; }

  /// Number of lazily buffered (not yet durable) records.
  [[nodiscard]] std::size_t lazy_buffered() const { return lazy_buf_.size(); }

 private:
  struct PendingForce {
    std::vector<LogRecord> recs;
    ForceCallback done;
  };

  void submit(std::vector<PendingForce> batch);
  void schedule_lazy_flush();
  void recycle_recs(std::vector<LogRecord>&& recs);
  [[nodiscard]] std::uint64_t padded(std::uint64_t bytes) const;

  Env& env_;
  NodeId owner_;
  LogPartition& part_;
  StatsRegistry& stats_;
  TraceRecorder& trace_;
  WalConfig cfg_;

  bool crashed_ = false;
  bool force_in_flight_ = false;           // used only under group_commit
  std::uint32_t outstanding_forces_ = 0;   // submitted, not yet durable
  std::vector<PendingForce> coalesce_queue_;
  std::vector<LogRecord> lazy_buf_;
  TimerHandle lazy_flush_timer_;
  std::uint64_t crash_epoch_ = 0;  // invalidates in-flight continuations

  Counter c_force_count_;
  Counter c_force_critical_;
  Counter c_force_bytes_;
  Counter c_lazy_count_;
  Counter c_lazy_critical_;
  // Recycled shells (bounded; see recycle_recs / submit).
  std::vector<std::vector<LogRecord>> recs_pool_;
  std::vector<std::vector<PendingForce>> batch_pool_;
};

}  // namespace opc
