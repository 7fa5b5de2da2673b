// Conflict-serializability certification for committed histories.
//
// The isolation tests record every object access (who, what, when) and
// every commit.  Every access writes the object it locks, so any two
// accesses to one object by different transactions conflict.  The checker
// builds the conflict graph over committed transactions — an edge ti -> tj
// whenever ti's access to an object precedes tj's — and certifies the history
// serializable iff that graph is acyclic.  Strict 2PL guarantees this; the
// tests make the guarantee observable.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/time.h"
#include "txn/types.h"

namespace opc {

class HistoryRecorder {
 public:
  struct Access {
    TxnId txn;
    ObjectId obj;
    SimTime at;
    std::uint64_t seq;  // total order among same-instant accesses
    std::uint32_t node;
  };

  /// Records an object access.  `node` identifies the recording MDS so that
  /// drop_accesses() can void a node's pre-crash accesses (whose effects
  /// evaporated with its cache) without touching surviving ones.
  void record_access(TxnId txn, ObjectId obj, SimTime at,
                     std::uint32_t node = UINT32_MAX) {
    accesses_.push_back(Access{txn, obj, at, seq_++, node});
  }
  void record_commit(TxnId txn) { committed_.insert(txn); }
  void record_abort(TxnId txn) { aborted_.insert(txn); }

  /// Voids the accesses `node` recorded for `txn` — called when the node
  /// crashes while the transaction's effects there were still volatile.  A
  /// later re-drive records fresh accesses at their true (post-recovery)
  /// position in the conflict order.
  void drop_accesses(std::uint32_t node, TxnId txn) {
    std::erase_if(accesses_, [&](const Access& a) {
      return a.node == node && a.txn == txn;
    });
  }

  /// Raw access log (debugging failing histories).
  [[nodiscard]] const std::vector<Access>& accesses() const {
    return accesses_;
  }
  [[nodiscard]] const std::unordered_set<TxnId>& committed() const {
    return committed_;
  }

  /// Conflict edges between committed transactions (deduplicated).
  [[nodiscard]] std::vector<std::pair<TxnId, TxnId>> conflict_edges() const;

  /// True iff the committed history is conflict-serializable.
  [[nodiscard]] bool serializable() const;

  /// A topological order witnessing serializability (empty if cyclic).
  [[nodiscard]] std::vector<TxnId> serialization_order() const;

 private:
  std::vector<Access> accesses_;
  std::unordered_set<TxnId> committed_;
  std::unordered_set<TxnId> aborted_;
  std::uint64_t seq_ = 0;
};

}  // namespace opc
