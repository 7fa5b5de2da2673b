// Two-phase-locking lock manager (one per MDS, as in ACID Sim Tools).
//
// The commit protocols provide isolation through strict 2PL (paper §II-B):
// every metadata object touched by a transaction is locked before the first
// update and released only when the protocol says the object's final state
// is decided (after COMMITTED for 2PC-family protocols; after the worker's
// UPDATED for the 1PC coordinator — the paper's headline latency win).
//
// Deadlock handling follows the paper: a waiter that is not granted within
// a timeout is aborted by its coordinator.  A proactive wait-for-graph
// cycle detector is also provided (extension; ablation material).
//
// Granting is strict FIFO — no barging — except that a lock upgrade
// (S -> X by the sole holder) jumps the queue, the standard rule that keeps
// upgrades deadlock-free against new arrivals.
//
// Hot-path memory: lock states are pooled (the per-resource entry is reused
// across the storm with its holder/waiter capacity intact), the indexes are
// open-addressing FlatMaps, the per-txn resource sets ride inline in
// SmallVecs, and grant/timeout continuations are InlineCallbacks — so the
// steady-state acquire/wait/grant/release cycle never touches the heap.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pool.h"
#include "core/flat.h"
#include "env/env.h"
#include "sim/inline_callback.h"
#include "sim/trace.h"
#include "stats/counters.h"
#include "stats/histogram.h"

namespace opc {

enum class LockMode : std::uint8_t { kShared, kExclusive };

[[nodiscard]] constexpr bool lock_compatible(LockMode a, LockMode b) {
  return a == LockMode::kShared && b == LockMode::kShared;
}

/// Resources are identified by opaque 64-bit keys (the MDS layer maps
/// metadata object ids onto them); requesters by transaction id.
class LockManager {
 public:
  using Granted = InlineCallback<void(), kInlineCallbackBytes>;
  using TimedOut = InlineCallback<void(), kInlineCallbackBytes>;

  LockManager(Env& env, std::string name, StatsRegistry& stats,
              TraceRecorder& trace)
      : env_(env), name_(std::move(name)), stats_(stats), trace_(trace),
        c_waits_(stats, "lock.waits"),
        c_grants_immediate_(stats, "lock.grants.immediate"),
        c_grants_queued_(stats, "lock.grants.queued"),
        c_releases_(stats, "lock.releases"),
        c_reentrant_(stats, "lock.reentrant"),
        c_upgrades_(stats, "lock.upgrades"),
        c_timeouts_(stats, "lock.timeouts"),
        c_cancelled_waits_(stats, "lock.cancelled_waits") {}

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;
  ~LockManager();

  /// Requests `mode` on `resource` for `txn`.
  ///  * Granted immediately (compatible, nobody queued ahead): `on_granted`
  ///    runs synchronously and acquire() returns true.
  ///  * Otherwise the request queues; `on_granted` runs when the lock is
  ///    handed over.  If `timeout` > 0 and expires first, the request is
  ///    removed and `on_timeout` runs instead (never both).
  /// Reentrant: a txn holding >= `mode` is granted immediately; a sole
  /// holder of S requesting X is upgraded in place; a non-sole S holder
  /// requesting X queues at the front as an upgrade.
  bool acquire(std::uint64_t txn, std::uint64_t resource, LockMode mode,
               Granted on_granted, Duration timeout = Duration::zero(),
               TimedOut on_timeout = nullptr);

  /// Releases one resource held by `txn`; grants any now-unblocked waiters.
  void release(std::uint64_t txn, std::uint64_t resource);

  /// Releases everything `txn` holds and cancels its queued requests.
  void release_all(std::uint64_t txn);

  /// Drops the entire lock table (node crash — lock state is volatile).
  /// Queued waiters' timers are cancelled; no callbacks fire.
  void reset();

  /// True if `txn` currently holds `resource` in at least `mode`.
  [[nodiscard]] bool holds(std::uint64_t txn, std::uint64_t resource,
                           LockMode mode) const;

  [[nodiscard]] std::size_t waiting_count(std::uint64_t resource) const;
  [[nodiscard]] std::size_t held_resources(std::uint64_t txn) const;

  /// Wait-for-graph cycle scan.  Returns one victim per cycle found
  /// (the youngest transaction = largest id), without cancelling anything —
  /// the caller decides how to abort.  Extension beyond the paper's
  /// timeout-only scheme.
  [[nodiscard]] std::vector<std::uint64_t> find_deadlock_victims() const;

  /// Wait-time distribution across all granted-after-wait requests.
  [[nodiscard]] const Histogram& wait_times() const { return wait_hist_; }

 private:
  struct Holder {
    std::uint64_t txn;
    LockMode mode;
  };
  struct Waiter {
    std::uint64_t txn;
    LockMode mode;
    bool upgrade;
    Granted on_granted;
    TimedOut on_timeout;
    TimerHandle timer;
    SimTime enqueued;
  };

  /// FIFO queue over a vector with a consumed-prefix index: pop_front is
  /// O(1), the buffer (and each parked Waiter's callback storage) is reused
  /// once the queue drains, and upgrade push_front reoccupies the consumed
  /// prefix when one exists.
  class WaitQueue {
   public:
    [[nodiscard]] bool empty() const { return head_ == buf_.size(); }
    [[nodiscard]] std::size_t size() const { return buf_.size() - head_; }
    [[nodiscard]] Waiter& front() { return buf_[head_]; }
    [[nodiscard]] Waiter& operator[](std::size_t i) { return buf_[head_ + i]; }
    [[nodiscard]] const Waiter& operator[](std::size_t i) const {
      return buf_[head_ + i];
    }
    [[nodiscard]] Waiter* begin() { return buf_.data() + head_; }
    [[nodiscard]] Waiter* end() { return buf_.data() + buf_.size(); }
    [[nodiscard]] const Waiter* begin() const { return buf_.data() + head_; }
    [[nodiscard]] const Waiter* end() const {
      return buf_.data() + buf_.size();
    }
    void push_back(Waiter&& w) { buf_.push_back(std::move(w)); }
    void push_front(Waiter&& w) {
      if (head_ > 0) {
        buf_[--head_] = std::move(w);
      } else {
        buf_.insert(buf_.begin(), std::move(w));
      }
    }
    void pop_front() {
      ++head_;
      maybe_rewind();
    }
    /// Removes *it; returns the element that took its position (== end()
    /// when it was the last).
    Waiter* erase(Waiter* it) {
      const std::size_t i = static_cast<std::size_t>(it - begin());
      buf_.erase(buf_.begin() + static_cast<std::ptrdiff_t>(head_ + i));
      maybe_rewind();
      return begin() + i;
    }
    void clear() {
      buf_.clear();
      head_ = 0;
    }

   private:
    void maybe_rewind() {
      if (head_ == buf_.size()) {
        buf_.clear();
        head_ = 0;
      }
    }
    std::vector<Waiter> buf_;
    std::size_t head_ = 0;
  };

  struct LockState {
    std::vector<Holder> holders;
    WaitQueue waiters;
    void clear_for_reuse() {
      holders.clear();
      waiters.clear();
    }
  };

  [[nodiscard]] LockState* state_of(std::uint64_t resource) {
    LockState* const* p = locks_.find(resource);
    return p == nullptr ? nullptr : *p;
  }
  [[nodiscard]] const LockState* state_of(std::uint64_t resource) const {
    return const_cast<LockManager*>(this)->state_of(resource);
  }
  LockState& state_for(std::uint64_t resource);
  void retire_state(std::uint64_t resource, LockState* s);

  void pump(std::uint64_t resource);
  [[nodiscard]] bool grantable(const LockState& s, std::uint64_t txn,
                               LockMode mode, bool as_upgrade) const;
  /// A transaction may queue multiple waiters on one resource; the
  /// waiting_by_txn_ entry must survive until the LAST of them is gone.
  [[nodiscard]] static bool txn_has_queued_waiter(const LockState& s,
                                                  std::uint64_t txn);

  Env& env_;
  std::string name_;
  StatsRegistry& stats_;
  TraceRecorder& trace_;
  Histogram wait_hist_;
  FlatMap<std::uint64_t, LockState*> locks_;
  Pool<LockState> state_pool_;
  // Per-txn resource indexes.  Values are insertion-ordered; release_all
  // walks them newest-first, which reproduces the iteration order of the
  // small unordered_sets they replaced (trace-hash compatible).
  FlatMap<std::uint64_t, SmallVec<std::uint64_t, 4>> held_by_txn_;
  FlatMap<std::uint64_t, SmallVec<std::uint64_t, 4>> waiting_by_txn_;

  Counter c_waits_;
  Counter c_grants_immediate_;
  Counter c_grants_queued_;
  Counter c_releases_;
  Counter c_reentrant_;
  Counter c_upgrades_;
  Counter c_timeouts_;
  Counter c_cancelled_waits_;
};

}  // namespace opc
