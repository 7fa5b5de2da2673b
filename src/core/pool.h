// Object pools for transaction-lifetime state.
//
// The commit protocols allocate in a strongly phased pattern: a burst of
// small objects when a transaction enters (txn records, lock states, log
// record vectors), all of it dead by the time the transaction finishes.
// The general-purpose heap charges a malloc/free pair per object for that
// pattern; the storm bench showed it dominating the per-event cost
// (~29 allocs/event before pooling).  Pool<T> replaces it: a free
// list of *constructed* objects with stable addresses.  release() parks
// the object without destroying it, so its internal buffers (vectors,
// strings) keep their capacity and the next acquire() reuses them warm.
// This is what the engine's CoordTxn/WorkTxn ride on: after the first few
// transactions the steady state recycles fully-grown objects and stops
// allocating.
//
// Pools are not thread-aware; each owner (engine, lock manager) keeps its
// own, matching the one-simulator-per-thread execution model.
// Introspection flows to MemStats (core/mem_stats.h).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/mem_stats.h"

namespace opc {

/// Free list of constructed objects with stable addresses.  acquire()
/// hands out a warm recycled object when one is parked (its heap-owning
/// members keep their capacity); release() parks without destroying.
/// The pool owns every object it ever created, so callers treat the
/// returned pointer as a borrow keyed to the pool's lifetime.
template <class T>
class Pool {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  T* acquire() {
    if (!free_.empty()) {
      T* p = free_.back();
      free_.pop_back();
      MemStats::global().pool_free.fetch_add(-1, std::memory_order_relaxed);
      return p;
    }
    all_.push_back(std::make_unique<T>());
    return all_.back().get();
  }

  /// Parks an object for reuse.  The caller is responsible for putting it
  /// into a reusable state first (clear containers, reset flags) — the
  /// pool does not touch it.
  void release(T* p) {
    free_.push_back(p);
    MemStats::global().pool_free.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t created() const { return all_.size(); }
  [[nodiscard]] std::size_t parked() const { return free_.size(); }

 private:
  std::vector<std::unique_ptr<T>> all_;
  std::vector<T*> free_;
};

}  // namespace opc
