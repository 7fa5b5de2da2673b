#include "txn/serializability.h"

#include <algorithm>
#include <map>

namespace opc {

std::vector<std::pair<TxnId, TxnId>> HistoryRecorder::conflict_edges() const {
  // Group accesses per object in (time, seq) order, then emit an edge for
  // every ordered conflicting pair of distinct committed transactions.
  std::map<ObjectId, std::vector<const Access*>> per_obj;
  for (const Access& a : accesses_) {
    if (!committed_.contains(a.txn)) continue;
    per_obj[a.obj].push_back(&a);
  }
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::pair<TxnId, TxnId>> edges;
  for (auto& [obj, list] : per_obj) {
    (void)obj;
    std::sort(list.begin(), list.end(), [](const Access* x, const Access* y) {
      if (x->at != y->at) return x->at < y->at;
      return x->seq < y->seq;
    });
    for (std::size_t i = 0; i < list.size(); ++i) {
      for (std::size_t j = i + 1; j < list.size(); ++j) {
        const Access* a = list[i];
        const Access* b = list[j];
        if (a->txn == b->txn) continue;
        const std::uint64_t key = a->txn * 0x9E3779B97F4A7C15ULL ^ b->txn;
        if (seen.insert(key).second) edges.emplace_back(a->txn, b->txn);
      }
    }
  }
  return edges;
}

std::vector<TxnId> HistoryRecorder::serialization_order() const {
  const auto edges = conflict_edges();
  std::unordered_map<TxnId, std::vector<TxnId>> adj;
  std::unordered_map<TxnId, int> indeg;
  for (TxnId t : committed_) indeg.emplace(t, 0);
  for (const auto& [u, v] : edges) {
    adj[u].push_back(v);
    ++indeg[v];
  }
  // Kahn's algorithm with the smallest-id tie-break for determinism.
  std::vector<TxnId> ready;
  for (const auto& [t, d] : indeg) {
    if (d == 0) ready.push_back(t);
  }
  std::sort(ready.begin(), ready.end(), std::greater<>());
  std::vector<TxnId> order;
  while (!ready.empty()) {
    const TxnId u = ready.back();
    ready.pop_back();
    order.push_back(u);
    if (auto it = adj.find(u); it != adj.end()) {
      for (TxnId v : it->second) {
        if (--indeg[v] == 0) {
          ready.push_back(v);
          std::sort(ready.begin(), ready.end(), std::greater<>());
        }
      }
    }
  }
  if (order.size() != indeg.size()) order.clear();  // cycle
  return order;
}

bool HistoryRecorder::serializable() const {
  return committed_.empty() || !serialization_order().empty();
}

}  // namespace opc
