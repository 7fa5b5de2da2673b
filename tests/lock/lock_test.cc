// Lock manager: exclusive grants, FIFO fairness, reentrancy, timeouts,
// release cascades, crash reset.
#include <gtest/gtest.h>

#include "env/sim_env.h"
#include "lock/lock_manager.h"

namespace opc {
namespace {

struct LockFixture {
  Simulator sim;
  SimEnv env{sim};
  StatsRegistry stats;
  TraceRecorder trace{false};
  LockManager lm{env, "lm", stats, trace};
};

TEST(LockTest, ExclusiveGrantsImmediatelyWhenFree) {
  LockFixture f;
  bool granted = false;
  EXPECT_TRUE(f.lm.acquire(1, 100, [&] { granted = true; }));
  EXPECT_TRUE(granted);
  EXPECT_TRUE(f.lm.holds(1, 100));
}

TEST(LockTest, FifoNoBarging) {
  LockFixture f;
  std::vector<int> order;
  f.lm.acquire(1, 100, [] {});
  EXPECT_FALSE(f.lm.acquire(2, 100, [&] { order.push_back(2); }));
  EXPECT_FALSE(f.lm.acquire(3, 100, [&] { order.push_back(3); }));
  f.lm.release_all(1);
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_TRUE(f.lm.holds(2, 100));
  // A late arrival queues behind txn 3, not ahead of it.
  EXPECT_FALSE(f.lm.acquire(4, 100, [&] { order.push_back(4); }));
  f.lm.release_all(2);
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
  f.lm.release_all(3);
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4}));
}

TEST(LockTest, ReentrantRequestIsGrantedAtOnce) {
  LockFixture f;
  int granted = 0;
  f.lm.acquire(1, 100, [&] { ++granted; });
  EXPECT_TRUE(f.lm.acquire(1, 100, [&] { ++granted; }));
  EXPECT_EQ(granted, 2);
  EXPECT_EQ(f.lm.held_resources(1), 1u);
  EXPECT_EQ(f.stats.get("lock.reentrant"), 1);
  f.lm.release_all(1);
  EXPECT_FALSE(f.lm.holds(1, 100));
}

TEST(LockTest, SecondQueuedRequestIsABug) {
  LockFixture f;
  f.lm.acquire(1, 100, [] {});
  f.lm.acquire(2, 100, [] {});
  EXPECT_DEATH(f.lm.acquire(2, 100, [] {}), "queued twice");
}

TEST(LockTest, TimeoutFiresAndRemovesWaiter) {
  LockFixture f;
  bool granted = false, timed_out = false;
  f.lm.acquire(1, 100, [] {});
  f.lm.acquire(2, 100, [&] { granted = true; }, Duration::millis(10),
               [&] { timed_out = true; });
  f.sim.run();
  EXPECT_TRUE(timed_out);
  EXPECT_FALSE(granted);
  EXPECT_EQ(f.lm.waiting_count(100), 0u);
  EXPECT_EQ(f.stats.get("lock.timeouts"), 1);
}

TEST(LockTest, GrantCancelsTimeout) {
  LockFixture f;
  bool granted = false, timed_out = false;
  f.lm.acquire(1, 100, [] {});
  f.lm.acquire(2, 100, [&] { granted = true; }, Duration::millis(50),
               [&] { timed_out = true; });
  f.lm.release_all(1);
  f.sim.run();
  EXPECT_TRUE(granted);
  EXPECT_FALSE(timed_out);
}

TEST(LockTest, ReleaseAllDropsHoldsAndWaits) {
  LockFixture f;
  bool w = false;
  f.lm.acquire(1, 100, [] {});
  f.lm.acquire(1, 101, [] {});
  f.lm.acquire(2, 100, [&] { w = true; });
  f.lm.acquire(2, 102, [] {});
  f.lm.release_all(1);
  EXPECT_TRUE(w);
  EXPECT_EQ(f.lm.held_resources(1), 0u);
  // Txn 2 still holds what it acquired.
  EXPECT_TRUE(f.lm.holds(2, 100));
  f.lm.release_all(2);
  EXPECT_EQ(f.lm.held_resources(2), 0u);
}

TEST(LockTest, ReleaseAllCancelsOwnQueuedRequests) {
  LockFixture f;
  bool leaked = false;
  f.lm.acquire(1, 100, [] {});
  f.lm.acquire(2, 100, [&] { leaked = true; });
  f.lm.release_all(2);  // abandon the queued request
  f.lm.release_all(1);
  EXPECT_FALSE(leaked) << "released waiter must never be granted";
}

TEST(LockTest, ResetClearsEverythingAndCancelsTimers) {
  LockFixture f;
  bool timed_out = false;
  f.lm.acquire(1, 100, [] {});
  f.lm.acquire(2, 100, [] {}, Duration::millis(10), [&] { timed_out = true; });
  f.lm.reset();
  f.sim.run();
  EXPECT_FALSE(timed_out);
  EXPECT_FALSE(f.lm.holds(1, 100));
  EXPECT_EQ(f.lm.waiting_count(100), 0u);
}

}  // namespace
}  // namespace opc
