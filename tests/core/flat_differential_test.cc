// Differential coverage for the flat hot-path containers (core/flat.h) and
// the structures rebuilt on top of them (mds/store.h, lock/lock_manager.h).
//
// The memory-architecture pass swapped std::map / std::unordered_* for
// open-addressing tables on the storm hot path.  The invariant checkers,
// snapshot comparators and readdir all relied on specific semantics of the
// old containers — ordered iteration, erase-anything-anytime, stability of
// values across growth.  Each test here drives the new structure and an
// old-container reference model through the same randomized operation
// sequence and requires identical observable behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/flat.h"
#include "env/sim_env.h"
#include "lock/lock_manager.h"
#include "mds/store.h"
#include "sim/simulator.h"

namespace opc {
namespace {

/// Deterministic xorshift so the differential sequences are reproducible.
struct Rng {
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

TEST(FlatDifferential, MapMatchesUnorderedMapUnderChurn) {
  FlatMap<std::uint64_t, std::uint64_t> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng;
  for (int round = 0; round < 20000; ++round) {
    const std::uint64_t key = rng.below(512);  // force collisions and reuse
    switch (rng.below(4)) {
      case 0: {  // insert-or-assign via operator[]
        const std::uint64_t v = rng.next();
        flat[key] = v;
        ref[key] = v;
        break;
      }
      case 1: {  // try_emplace must not clobber
        auto [slot, inserted] = flat.try_emplace(key, round);
        const auto r = ref.try_emplace(key, round);
        ASSERT_EQ(inserted, r.second);
        ASSERT_EQ(*slot, r.first->second);
        break;
      }
      case 2: {  // erase returns whether the key existed
        ASSERT_EQ(flat.erase(key), ref.erase(key) > 0);
        break;
      }
      default: {  // lookup
        const std::uint64_t* p = flat.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(p != nullptr, it != ref.end());
        if (p != nullptr) {
          ASSERT_EQ(*p, it->second);
        }
      }
    }
  }
  // Full-contents equality, iteration order ignored (neither container
  // promises one; everything order-sensitive sorts explicitly).
  ASSERT_EQ(flat.size(), ref.size());
  std::size_t visited = 0;
  flat.for_each([&](const std::uint64_t& k, const std::uint64_t& v) {
    ++visited;
    const auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    ASSERT_EQ(v, it->second);
  });
  ASSERT_EQ(visited, ref.size());
}

TEST(FlatDifferential, SetMatchesStdSetUnderChurn) {
  FlatSet<std::uint64_t> flat;
  std::set<std::uint64_t> ref;
  Rng rng;
  for (int round = 0; round < 20000; ++round) {
    const std::uint64_t key = rng.below(256);
    switch (rng.below(3)) {
      case 0:
        ASSERT_EQ(flat.insert(key), ref.insert(key).second);
        break;
      case 1:
        ASSERT_EQ(flat.erase(key), ref.erase(key) > 0);
        break;
      default:
        ASSERT_EQ(flat.contains(key), ref.count(key) > 0);
    }
  }
  ASSERT_EQ(flat.size(), ref.size());
}

// The checkers drain containers with an "iterate, collect, erase" pattern
// (release_all, reset, crash).  Backward-shift erase makes live iteration
// mutation undefined for FlatMap, so every such site snapshots keys first —
// this test pins that the snapshot-then-erase idiom drains exactly the keys
// a std::map reference drains.
TEST(FlatDifferential, SnapshotThenEraseDrainsLikeOrderedMap) {
  FlatMap<std::uint64_t, std::uint64_t> flat;
  std::map<std::uint64_t, std::uint64_t> ref;
  Rng rng;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t k = rng.next();
    flat[k] = i;
    ref[k] = i;
  }
  std::vector<std::uint64_t> victims;
  flat.for_each([&victims](const std::uint64_t& k, const std::uint64_t& v) {
    if (v % 3 == 0) victims.push_back(k);
  });
  for (const std::uint64_t k : victims) {
    ASSERT_TRUE(flat.erase(k));
    ASSERT_EQ(ref.erase(k), 1u);
  }
  ASSERT_EQ(flat.size(), ref.size());
  ref.erase(ref.begin(), ref.end());  // drain the rest both ways
  std::vector<std::uint64_t> rest;
  flat.for_each(
      [&rest](const std::uint64_t& k, const std::uint64_t&) { rest.push_back(k); });
  for (const std::uint64_t k : rest) ASSERT_TRUE(flat.erase(k));
  ASSERT_TRUE(flat.empty());
  ASSERT_TRUE(ref.empty());
}

// ObjectId keys survive arbitrary growth: every previously inserted id is
// still found (with its value intact) after the table rehashes many times.
// Slot pointers are explicitly NOT stable across growth — the hot paths
// refetch after any insert — so the test validates values, not addresses.
TEST(FlatDifferential, RehashKeepsObjectIdKeysFindable) {
  FlatMap<std::uint64_t, std::uint64_t> flat;
  std::vector<std::uint64_t> ids;
  Rng rng;
  for (int i = 0; i < 50000; ++i) {
    // Realistic ObjectId shapes: small sequential ids plus sparse hashes.
    const std::uint64_t id =
        (i % 2 == 0) ? static_cast<std::uint64_t>(i) : rng.next();
    if (flat.try_emplace(id, id ^ 0xabcdefull).second) ids.push_back(id);
    if (i % 4096 == 0) {
      for (const std::uint64_t seen : ids) {
        const std::uint64_t* p = flat.find(seen);
        ASSERT_NE(p, nullptr) << "id lost across rehash: " << seen;
        ASSERT_EQ(*p, seen ^ 0xabcdefull);
      }
    }
  }
}

// --- MetaStore vs an ordered reference model -------------------------------
//
// The chaos checkers equality-compare stable_dentries()/stable_inodes()
// dumps across crash/recovery, and readdir feeds path resolution: all three
// depended on std::map's sorted iteration.  Drive the flat-table store and
// a std::map model through one randomized namespace history and require
// identical ordered dumps and listings at every commit.
TEST(FlatDifferential, StoreDumpsMatchOrderedMapModel) {
  MetaStore store{NodeId(0)};
  std::map<std::uint64_t, Inode> ref_inodes;
  std::map<std::pair<std::uint64_t, std::string>, ObjectId> ref_dentries;

  const ObjectId root(1);
  store.bootstrap_inode(Inode{root, true, 1, 0});
  ref_inodes[root.value()] = Inode{root, true, 1, 0};

  Rng rng;
  TxnId txn = 100;
  std::uint64_t next_id = 2;
  std::vector<std::pair<std::uint64_t, std::string>> live;  // (dir, name)
  for (int round = 0; round < 400; ++round) {
    ++txn;
    if (live.empty() || rng.below(3) != 0) {
      // CREATE: new file inode + dentry under root.
      const ObjectId child(next_id++);
      const std::string name = "f" + std::to_string(child.value());
      ASSERT_EQ(store.apply(txn, Operation{OpType::kCreateInode, child,
                                           ObjectId{}, ""}),
                StoreStatus::kOk);
      ASSERT_EQ(store.apply(txn, Operation{OpType::kAddDentry, root, child,
                                           name}),
                StoreStatus::kOk);
      store.commit_txn(txn);
      ref_inodes[child.value()] = Inode{child, false, 0, 0};
      ref_dentries[{root.value(), name}] = child;
      live.emplace_back(root.value(), name);
    } else {
      // UNLINK a random live entry.
      const std::size_t pick = rng.below(live.size());
      const auto [dir, name] = live[pick];
      const ObjectId child = ref_dentries.at({dir, name});
      ASSERT_EQ(store.apply(txn, Operation{OpType::kRemoveDentry,
                                           ObjectId(dir), child, name}),
                StoreStatus::kOk);
      ASSERT_EQ(store.apply(txn, Operation{OpType::kRemoveInode, child,
                                           ObjectId{}, ""}),
                StoreStatus::kOk);
      store.commit_txn(txn);
      ref_inodes.erase(child.value());
      ref_dentries.erase({dir, name});
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }

    if (round % 25 != 0) continue;
    // Ordered dumps must equal the std::map model's natural iteration.
    const std::vector<Inode> inodes = store.stable_inodes();
    ASSERT_EQ(inodes.size(), ref_inodes.size());
    std::size_t i = 0;
    for (const auto& [id, ino] : ref_inodes) {
      ASSERT_EQ(inodes[i].id.value(), id);
      ASSERT_EQ(inodes[i], ino);
      ++i;
    }
    const auto dentries = store.stable_dentries();
    ASSERT_EQ(dentries.size(), ref_dentries.size());
    i = 0;
    for (const auto& [key, child] : ref_dentries) {
      ASSERT_EQ(std::get<0>(dentries[i]).value(), key.first);
      ASSERT_EQ(std::get<1>(dentries[i]), key.second);
      ASSERT_EQ(std::get<2>(dentries[i]), child);
      ++i;
    }
    // readdir order == the old map's (dir, name) range scan order.
    const auto listing = store.mem_list_dir(root);
    ASSERT_TRUE(std::is_sorted(
        listing.begin(), listing.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; }));
    ASSERT_EQ(listing.size(), ref_dentries.size());
  }
}

// --- Lock manager vs a FIFO reference model --------------------------------
//
// The lock table's unordered_map+unordered_set trio became pooled flat
// structures; what must survive is the queueing discipline: FIFO grants per
// resource and release_all dropping every hold.  Replay
// a contention scenario and compare the observable grant order against a
// hand-computed reference.
TEST(FlatDifferential, LockQueueKeepsFifoGrantOrder) {
  Simulator sim;
  SimEnv env(sim);
  StatsRegistry stats;
  TraceRecorder trace(false);
  LockManager lm(env, "diff", stats, trace);

  std::vector<std::uint64_t> grants;
  const std::uint64_t kRes = 7;
  lm.acquire(1, kRes, [&grants] { grants.push_back(1); });
  for (std::uint64_t t = 2; t <= 6; ++t) {
    lm.acquire(t, kRes, [&grants, t] { grants.push_back(t); });
  }
  sim.run();
  ASSERT_EQ(grants, (std::vector<std::uint64_t>{1}));
  for (std::uint64_t t = 1; t <= 6; ++t) {
    lm.release_all(t);
    sim.run();
  }
  // Waiters drained strictly in arrival order.
  ASSERT_EQ(grants, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));
}

}  // namespace
}  // namespace opc
