#include "lock/lock_manager.h"

#include <utility>

namespace opc {

LockManager::~LockManager() = default;

LockManager::LockState& LockManager::state_for(std::uint64_t resource) {
  auto [slot, inserted] = locks_.try_emplace(resource, nullptr);
  if (inserted) {
    LockState* s = state_pool_.acquire();
    s->clear_for_reuse();
    *slot = s;
  }
  return **slot;
}

void LockManager::retire_state(std::uint64_t resource, LockState* s) {
  locks_.erase(resource);
  state_pool_.release(s);
}

LockManager::Waiter* LockManager::find_waiter(LockState& s,
                                              std::uint64_t txn) {
  Waiter* w = s.waiters.begin();
  while (w != s.waiters.end() && w->txn != txn) ++w;
  return w;
}

void LockManager::forget_wait(std::uint64_t txn, std::uint64_t resource) {
  if (auto* wset = waiting_by_txn_.find(txn)) {
    wset->erase_value(resource);
    if (wset->empty()) waiting_by_txn_.erase(txn);
  }
}

bool LockManager::acquire(std::uint64_t txn, std::uint64_t resource,
                          Granted on_granted, Duration timeout,
                          TimedOut on_timeout) {
  SIM_CHECK(on_granted != nullptr);
  SIM_CHECK(txn != kNoOwner);
  LockState& s = state_for(resource);

  if (s.owner == txn) {
    c_reentrant_.add();
    on_granted();
    return true;
  }

  if (s.owner == kNoOwner) {
    s.owner = txn;
    held_by_txn_[txn].insert_unique(resource);
    c_grants_immediate_.add();
    if (trace_.active()) {
      trace_.record(env_.now(), TraceKind::kLockGrant, name_,
                    "X r" + std::to_string(resource), txn);
    }
    on_granted();
    return true;
  }

  SIM_CHECK_MSG(find_waiter(s, txn) == s.waiters.end(),
                "transaction queued twice on one resource");
  Waiter w{txn, std::move(on_granted), std::move(on_timeout), TimerHandle{}};
  if (timeout > Duration::zero()) {
    w.timer = env_.schedule_after(timeout, [this, txn, resource] {
      LockState* st = state_of(resource);
      if (st == nullptr) return;
      Waiter* wit = find_waiter(*st, txn);
      if (wit == st->waiters.end()) return;
      TimedOut cb = std::move(wit->on_timeout);
      // The resource keeps its owner, so no one behind this waiter moves up.
      st->waiters.erase(wit);
      forget_wait(txn, resource);
      c_timeouts_.add();
      if (cb) cb();
    });
  }
  s.waiters.push_back(std::move(w));
  waiting_by_txn_[txn].insert_unique(resource);
  c_waits_.add();
  if (trace_.active()) {
    trace_.record(env_.now(), TraceKind::kLockWait, name_,
                  "X r" + std::to_string(resource), txn);
  }
  return false;
}

void LockManager::hand_over(std::uint64_t resource, LockState& s) {
  Waiter w = std::move(s.waiters.front());
  s.waiters.pop_front();
  env_.cancel(w.timer);
  forget_wait(w.txn, resource);
  s.owner = w.txn;
  held_by_txn_[w.txn].insert_unique(resource);
  c_grants_queued_.add();
  if (trace_.active()) {
    trace_.record(env_.now(), TraceKind::kLockGrant, name_,
                  "X r" + std::to_string(resource) + " (queued)", w.txn);
  }
  // May recurse into acquire/release_all; `s` is not touched afterwards.
  w.on_granted();
}

void LockManager::release_all(std::uint64_t txn) {
  // Cancel queued requests first so a release cannot grant a lock to a
  // request this same transaction is abandoning.
  if (auto* wset = waiting_by_txn_.find(txn)) {
    const SmallVec<std::uint64_t, 4> waiting = std::move(*wset);
    waiting_by_txn_.erase(txn);
    // Newest-first, matching the iteration order of the small
    // unordered_set this index replaced (trace-hash compatible).
    for (std::size_t i = waiting.size(); i-- > 0;) {
      LockState* sp = state_of(waiting[i]);
      if (sp == nullptr) continue;
      Waiter* w = find_waiter(*sp, txn);
      if (w == sp->waiters.end()) continue;
      env_.cancel(w->timer);
      sp->waiters.erase(w);
      c_cancelled_waits_.add();
    }
  }
  if (auto* hset = held_by_txn_.find(txn)) {
    const SmallVec<std::uint64_t, 4> held = std::move(*hset);
    held_by_txn_.erase(txn);
    for (std::size_t i = held.size(); i-- > 0;) {
      const std::uint64_t resource = held[i];
      LockState* sp = state_of(resource);
      if (sp == nullptr) continue;
      LockState& s = *sp;
      s.owner = kNoOwner;
      c_releases_.add();
      if (trace_.active()) {
        trace_.record(env_.now(), TraceKind::kLockRelease, name_,
                      "r" + std::to_string(resource), txn);
      }
      if (s.waiters.empty()) {
        retire_state(resource, &s);
      } else {
        hand_over(resource, s);
      }
    }
  }
}

void LockManager::reset() {
  locks_.for_each([this](const std::uint64_t&, LockState*& s) {
    for (Waiter& w : s->waiters) env_.cancel(w.timer);
    state_pool_.release(s);
  });
  locks_.clear();
  held_by_txn_.clear();
  waiting_by_txn_.clear();
  stats_.add("lock.resets");
}

bool LockManager::holds(std::uint64_t txn, std::uint64_t resource) const {
  const LockState* s = state_of(resource);
  return s != nullptr && s->owner == txn;
}

std::size_t LockManager::waiting_count(std::uint64_t resource) const {
  const LockState* s = state_of(resource);
  return s == nullptr ? 0 : s->waiters.size();
}

std::size_t LockManager::held_resources(std::uint64_t txn) const {
  const auto* hset = held_by_txn_.find(txn);
  return hset == nullptr ? 0 : hset->size();
}

}  // namespace opc
