// Two-phase-locking lock manager (one per MDS, as in ACID Sim Tools).
//
// The commit protocols provide isolation through strict 2PL (paper §II-B):
// every metadata object touched by a transaction is locked before the first
// update and released only when the protocol says the object's final state
// is decided (after COMMITTED for 2PC-family protocols; after the worker's
// UPDATED for the 1PC coordinator — the paper's headline latency win).
//
// Every namespace operation writes the objects it locks, so locks are
// exclusive: one owner per resource.  Granting is strict FIFO — no barging.
// Deadlock handling follows the paper: a waiter that is not granted within
// a timeout is aborted by its coordinator.
//
// Hot-path memory: lock states are pooled (the per-resource entry is reused
// across the storm with its waiter capacity intact), the indexes are
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

namespace opc {

/// Resources are identified by opaque 64-bit keys (the MDS layer maps
/// metadata object ids onto them); requesters by non-zero transaction ids.
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
        c_timeouts_(stats, "lock.timeouts"),
        c_cancelled_waits_(stats, "lock.cancelled_waits") {}

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;
  ~LockManager();

  /// Requests `resource` for `txn`.
  ///  * Granted immediately (free, or already held by `txn`): `on_granted`
  ///    runs synchronously and acquire() returns true.
  ///  * Otherwise the request queues; `on_granted` runs when the lock is
  ///    handed over.  If `timeout` > 0 and expires first, the request is
  ///    removed and `on_timeout` runs instead (never both).
  /// A transaction queues at most once per resource.
  bool acquire(std::uint64_t txn, std::uint64_t resource, Granted on_granted,
               Duration timeout = Duration::zero(),
               TimedOut on_timeout = nullptr);

  /// Releases everything `txn` holds and cancels its queued requests.
  void release_all(std::uint64_t txn);

  /// Drops the entire lock table (node crash — lock state is volatile).
  /// Queued waiters' timers are cancelled; no callbacks fire.
  void reset();

  [[nodiscard]] bool holds(std::uint64_t txn, std::uint64_t resource) const;
  [[nodiscard]] std::size_t waiting_count(std::uint64_t resource) const;
  [[nodiscard]] std::size_t held_resources(std::uint64_t txn) const;

 private:
  static constexpr std::uint64_t kNoOwner = 0;

  struct Waiter {
    std::uint64_t txn;
    Granted on_granted;
    TimedOut on_timeout;
    TimerHandle timer;
  };

  /// FIFO queue over a vector with a consumed-prefix index: pop_front is
  /// O(1), and the buffer (and each parked Waiter's callback storage) is
  /// reused once the queue drains.
  class WaitQueue {
   public:
    [[nodiscard]] bool empty() const { return head_ == buf_.size(); }
    [[nodiscard]] std::size_t size() const { return buf_.size() - head_; }
    [[nodiscard]] Waiter& front() { return buf_[head_]; }
    [[nodiscard]] Waiter* begin() { return buf_.data() + head_; }
    [[nodiscard]] Waiter* end() { return buf_.data() + buf_.size(); }
    void push_back(Waiter&& w) { buf_.push_back(std::move(w)); }
    void pop_front() {
      ++head_;
      maybe_rewind();
    }
    void erase(Waiter* it) {
      buf_.erase(buf_.begin() + (it - buf_.data()));
      maybe_rewind();
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

  /// Invariant: a resource with queued waiters always has an owner — the
  /// release that frees it hands it straight to the queue's front.
  struct LockState {
    std::uint64_t owner = kNoOwner;
    WaitQueue waiters;
    void clear_for_reuse() {
      owner = kNoOwner;
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
  [[nodiscard]] static Waiter* find_waiter(LockState& s, std::uint64_t txn);
  void forget_wait(std::uint64_t txn, std::uint64_t resource);
  /// Grants the freed `resource` to the front of its queue.
  void hand_over(std::uint64_t resource, LockState& s);

  Env& env_;
  std::string name_;
  StatsRegistry& stats_;
  TraceRecorder& trace_;
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
  Counter c_timeouts_;
  Counter c_cancelled_waits_;
};

}  // namespace opc
