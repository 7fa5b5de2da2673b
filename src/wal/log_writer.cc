#include "wal/log_writer.h"

#include <utility>

namespace opc {
namespace {
constexpr std::size_t kMaxPooledRecs = 32;
constexpr std::size_t kMaxPooledBatches = 8;
}  // namespace

std::uint64_t LogWriter::padded(std::uint64_t bytes) const {
  if (cfg_.force_pad_to == 0) return bytes;
  const std::uint64_t blocks =
      (bytes + cfg_.force_pad_to - 1) / cfg_.force_pad_to;
  return std::max<std::uint64_t>(blocks, 1) * cfg_.force_pad_to;
}

std::vector<LogRecord> LogWriter::checkout_recs() {
  if (recs_pool_.empty()) return {};
  std::vector<LogRecord> v = std::move(recs_pool_.back());
  recs_pool_.pop_back();
  return v;
}

void LogWriter::recycle_recs(std::vector<LogRecord>&& recs) {
  if (recs_pool_.size() >= kMaxPooledRecs) return;
  recs.clear();
  recs_pool_.push_back(std::move(recs));
}

void LogWriter::force(std::vector<LogRecord> recs, WriteTag tag,
                      ForceCallback on_durable) {
  SIM_CHECK(on_durable != nullptr);
  if (crashed_ || part_.fenced()) {
    stats_.add("wal.force.dropped");
    return;  // the continuation is intentionally lost
  }
  c_force_count_.add();
  if (tag.critical) c_force_critical_.add();

  // Piggyback: lazily buffered records ride this force's block for free.
  if (!lazy_buf_.empty()) {
    recs.insert(recs.begin(), std::make_move_iterator(lazy_buf_.begin()),
                std::make_move_iterator(lazy_buf_.end()));
    lazy_buf_.clear();
    env_.cancel(lazy_flush_timer_);
    lazy_flush_timer_ = TimerHandle{};
  }

  PendingForce pf{std::move(recs), std::move(on_durable)};
  if (cfg_.group_commit && force_in_flight_) {
    coalesce_queue_.push_back(std::move(pf));
    stats_.add("wal.force.coalesced");
    return;
  }
  std::vector<PendingForce> batch;
  if (!batch_pool_.empty()) {
    batch = std::move(batch_pool_.back());
    batch_pool_.pop_back();
  }
  batch.push_back(std::move(pf));
  submit(std::move(batch));
}

void LogWriter::submit(std::vector<PendingForce> batch) {
  std::uint64_t bytes = 0;
  for (const auto& pf : batch) {
    for (const auto& r : pf.recs) bytes += r.modeled_bytes;
  }
  // The label only feeds trace output; skip composing it when nobody reads
  // it (the disk guards its own record calls the same way).
  std::string label;
  if (trace_.active()) {
    label = "force:" + owner_.str();
    for (const auto& pf : batch) {
      for (const auto& r : pf.recs) {
        label += ' ';
        label += record_type_name(r.type);
      }
    }
  }
  bytes = padded(bytes);
  c_force_bytes_.add(static_cast<std::int64_t>(bytes));

  force_in_flight_ = true;
  ++outstanding_forces_;
  const std::uint64_t epoch = crash_epoch_;
  part_.device().write(
      owner_, bytes, std::move(label),
      [this, epoch, batch = std::move(batch)]() mutable {
        // cancel_owner() suppresses this callback on crash/fence, but guard
        // against a crash+reboot cycle that raced the disk completion.
        if (epoch != crash_epoch_ || crashed_) return;
        --outstanding_forces_;
        for (auto& pf : batch) {
          part_.append_durable(pf.recs);
        }
        force_in_flight_ = false;
        // Run continuations after the durable append so they observe the
        // records in the partition.
        for (auto& pf : batch) pf.done();
        for (auto& pf : batch) recycle_recs(std::move(pf.recs));
        batch.clear();
        if (batch_pool_.size() < kMaxPooledBatches) {
          batch_pool_.push_back(std::move(batch));
        }
        if (!coalesce_queue_.empty()) {
          auto next = std::move(coalesce_queue_);
          coalesce_queue_.clear();
          submit(std::move(next));
        }
      });
}

void LogWriter::lazy(LogRecord rec, WriteTag tag) {
  if (crashed_ || part_.fenced()) {
    stats_.add("wal.lazy.dropped");
    return;
  }
  c_lazy_count_.add();
  if (tag.critical) c_lazy_critical_.add();
  if (trace_.active()) {
    trace_.record(env_.now(), TraceKind::kLogLazyWrite, owner_.str(),
                  "lazy " + std::string(record_type_name(rec.type)) + " (" +
                      tag.label + ")",
                  rec.txn);
  }
  lazy_buf_.push_back(std::move(rec));
  schedule_lazy_flush();
}

void LogWriter::schedule_lazy_flush() {
  if (lazy_flush_timer_.valid()) return;
  auto flush_cb = [this] {
    lazy_flush_timer_ = TimerHandle{};
    if (lazy_buf_.empty() || crashed_ || part_.fenced()) return;
    auto recs = std::move(lazy_buf_);
    lazy_buf_.clear();
    // Background flush modeled as free: the device would absorb these in
    // idle gaps; see DESIGN.md §5 (asynchronous writes coalesce).  The
    // device is only idle if no force is outstanding — flushing past a
    // queued force would reorder the durable log (a real WAL appends in
    // LSN order), so re-buffer and retry after the force completes.
    if (outstanding_forces_ > 0) {
      lazy_buf_.insert(lazy_buf_.begin(),
                       std::make_move_iterator(recs.begin()),
                       std::make_move_iterator(recs.end()));
      recycle_recs(std::move(recs));
      schedule_lazy_flush();
      return;
    }
    part_.append_durable(recs);
    recycle_recs(std::move(recs));
  };
  OPC_ASSERT_INLINE_CB(flush_cb);
  lazy_flush_timer_ =
      env_.schedule_after(cfg_.lazy_flush_interval, std::move(flush_cb));
}

void LogWriter::crash() {
  crashed_ = true;
  ++crash_epoch_;
  part_.device().cancel_owner(owner_);
  lazy_buf_.clear();
  coalesce_queue_.clear();
  force_in_flight_ = false;
  outstanding_forces_ = 0;
  env_.cancel(lazy_flush_timer_);
  lazy_flush_timer_ = TimerHandle{};
}

}  // namespace opc
