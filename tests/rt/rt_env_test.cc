// RtEnv executor: ordering, cancellation, cross-worker scheduling,
// quiescence — the Env contract (docs/RUNTIME.md) on the real-time side.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "rt/rt_env.h"

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace opc {
namespace {

TEST(RtEnvTest, RunsCallbacksInDeadlineOrderOnOneWorker) {
  RtEnv env(1);
  std::vector<int> fired;
  std::atomic<bool> done{false};
  // Schedule from outside the pool (lands on worker 0); reversed deadlines.
  const SimTime base = env.now() + Duration::millis(5);
  env.schedule_on(0, base + Duration::millis(6), [&] {
    fired.push_back(3);
    done.store(true);
  });
  env.schedule_on(0, base + Duration::millis(4), [&] { fired.push_back(2); });
  env.schedule_on(0, base, [&] { fired.push_back(1); });
  while (!done.load()) {
  }
  env.wait_idle();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(RtEnvTest, EqualDeadlinesFireInScheduleOrder) {
  RtEnv env(1);
  std::vector<int> fired;
  const SimTime when = env.now() + Duration::millis(5);
  for (int i = 0; i < 8; ++i) {
    env.schedule_on(0, when, [&fired, i] { fired.push_back(i); });
  }
  env.wait_idle();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(RtEnvTest, CancelPreventsExecutionAndIsIdempotent) {
  RtEnv env(1);
  std::atomic<int> ran{0};
  TimerHandle h =
      env.schedule_on(0, env.now() + Duration::millis(50), [&] { ++ran; });
  EXPECT_TRUE(h.valid());
  EXPECT_TRUE(env.cancel(h));
  EXPECT_FALSE(env.cancel(h)) << "second cancel is a no-op";
  env.wait_idle();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_FALSE(env.cancel(TimerHandle{})) << "default handle never cancels";
}

TEST(RtEnvTest, CancelAfterFireReturnsFalse) {
  RtEnv env(1);
  std::atomic<bool> ran{false};
  TimerHandle h = env.schedule_on(0, env.now(), [&] { ran.store(true); });
  env.wait_idle();
  EXPECT_TRUE(ran.load());
  EXPECT_FALSE(env.cancel(h));
}

TEST(RtEnvTest, SlotReuseInvalidatesStaleHandles) {
  RtEnv env(1);
  std::atomic<int> ran{0};
  TimerHandle a =
      env.schedule_on(0, env.now() + Duration::millis(50), [&] { ++ran; });
  ASSERT_TRUE(env.cancel(a));
  // The freed slot is reused; the old handle's generation is stale.
  TimerHandle b =
      env.schedule_on(0, env.now() + Duration::millis(50), [&] { ++ran; });
  EXPECT_FALSE(env.cancel(a)) << "stale handle must not cancel the new timer";
  EXPECT_TRUE(env.cancel(b));
  env.wait_idle();
  EXPECT_EQ(ran.load(), 0);
}

TEST(RtEnvTest, WorkerAffinityAndCrossWorkerPost) {
  RtEnv env(3);
  std::atomic<std::uint32_t> seen_a{RtEnv::kNoWorker};
  std::atomic<std::uint32_t> seen_b{RtEnv::kNoWorker};
  std::atomic<bool> done{false};
  EXPECT_EQ(env.current_worker(), RtEnv::kNoWorker);
  env.post(1, [&] {
    seen_a.store(env.current_worker());
    // schedule_after from a worker stays on that worker.
    env.schedule_after(Duration::millis(1), [&] {
      seen_b.store(env.current_worker());
      env.post(2, [&] { done.store(true); });
    });
  });
  while (!done.load()) {
  }
  env.wait_idle();
  EXPECT_EQ(seen_a.load(), 1u);
  EXPECT_EQ(seen_b.load(), 1u);
}

TEST(RtEnvTest, NowAdvancesMonotonically) {
  RtEnv env(1);
  const SimTime a = env.now();
  const SimTime b = env.now();
  EXPECT_LE(a, b);
  EXPECT_GE(a, SimTime::zero());
}

TEST(RtEnvTest, PerWorkerRngStreamsDiffer) {
  RtEnv env(2, /*seed=*/7);
  std::atomic<std::uint64_t> d0{0};
  std::atomic<std::uint64_t> d1{0};
  env.post(0, [&] { d0.store(env.rng().uniform_u64(0, UINT64_MAX - 1)); });
  env.post(1, [&] { d1.store(env.rng().uniform_u64(0, UINT64_MAX - 1)); });
  env.wait_idle();
  EXPECT_NE(d0.load(), d1.load());
}

TEST(RtEnvTest, ManyCrossWorkerHopsStayBalanced) {
  // A token bounces across workers; every hop runs exactly once.
  RtEnv env(4);
  std::atomic<int> hops{0};
  constexpr int kHops = 400;
  // Self-referential hop closure via a function pointer shape kept simple:
  struct Bouncer {
    RtEnv* env;
    std::atomic<int>* hops;
    void hop(int remaining) {
      if (remaining == 0) return;
      const std::uint32_t next =
          static_cast<std::uint32_t>(remaining % env->workers());
      env->post(next, [this, remaining] {
        hops->fetch_add(1);
        hop(remaining - 1);
      });
    }
  };
  Bouncer b{&env, &hops};
  b.hop(kHops);
  env.wait_idle();
  EXPECT_EQ(hops.load(), kHops);
}

TEST(RtEnvTest, DispatchCountersCountFiredTimersOnly) {
  RtEnv env(3);
  constexpr int kFired = 60;
  std::atomic<int> ran{0};
  std::vector<TimerHandle> doomed;
  for (int i = 0; i < kFired; ++i) {
    const auto w = static_cast<std::uint32_t>(i % 3);
    env.schedule_on(w, env.now() + Duration::micros(100 * (i % 5)),
                    [&] { ++ran; });
    doomed.push_back(env.schedule_on(w, env.now() + Duration::seconds(30),
                                     [&] { ++ran; }));
  }
  for (const TimerHandle& h : doomed) ASSERT_TRUE(env.cancel(h));
  env.wait_idle();
  ASSERT_EQ(ran.load(), kFired);
  StatsRegistry stats;
  env.export_stats(stats);
  EXPECT_EQ(stats.get("rt.timer.fired"), kFired)
      << "cancelled timers are not counted";
  EXPECT_GT(stats.get("rt.timer.late_ns"), 0)
      << "fired timers add their lateness";
}

#ifdef __linux__
TEST(RtEnvTest, WorkersRunWithNanosecondTimerSlack) {
  RtEnv env(3);
  std::atomic<int> slack[3] = {-1, -1, -1};
  for (std::uint32_t w = 0; w < env.workers(); ++w) {
    env.post(w, [&slack, w] { slack[w].store(prctl(PR_GET_TIMERSLACK)); });
  }
  env.wait_idle();
  for (const auto& s : slack) EXPECT_EQ(s.load(), 1);
}
#endif

}  // namespace
}  // namespace opc
