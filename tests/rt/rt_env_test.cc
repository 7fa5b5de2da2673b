// RtEnv executor: ordering, cancellation, cross-worker scheduling,
// quiescence — the Env contract (docs/RUNTIME.md) on the real-time side.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
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

TEST(RtEnvTest, DispatchCountersCountSleepsAndPolls) {
  RtEnv env(1);
  // Armed from the worker itself, 100 ms out: far beyond any learned lead,
  // so the worker must sleep before the timer fires.
  env.post(0, [&] { env.schedule_after(Duration::millis(100), [] {}); });
  env.wait_idle();
  StatsRegistry stats;
  env.export_stats(stats);
  EXPECT_EQ(stats.get("rt.timer.fired"), 2);
  EXPECT_GE(stats.get("rt.worker.sleeps"), 1);
  EXPECT_LE(stats.get("rt.timer.polled"), stats.get("rt.timer.fired"));
}

// Sleep-then-poll must never fire a timer early: every callback, whether
// its timer was armed by the driver or by a worker, sees now() >= when.
TEST(RtEnvTest, NoCallbackRunsBeforeItsDeadline) {
  RtEnv env(2, /*seed=*/3);
  constexpr int kRoots = 1000;  // each root arms one follow-up: 2000 timers
  std::atomic<int> fired{0};
  std::atomic<int> early{0};
  Rng rng(17);
  for (int i = 0; i < kRoots; ++i) {
    const auto w = static_cast<std::uint32_t>(i % 2);
    const SimTime when =
        env.now() + Duration::nanos(static_cast<std::int64_t>(
                        rng.uniform_u64(0, 150'000)));
    env.schedule_on(w, when, [&env, &fired, &early, when] {
      if (env.now() < when) early.fetch_add(1);
      fired.fetch_add(1);
      // Armed from the worker: lands on its own wheel.
      const Duration d = Duration::nanos(static_cast<std::int64_t>(
          env.rng().uniform_u64(0, 150'000)));
      const SimTime next = env.now() + d;
      env.schedule_at(next, [&env, &fired, &early, next] {
        if (env.now() < next) early.fetch_add(1);
        fired.fetch_add(1);
      });
    });
    if (i % 50 == 49) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  env.wait_idle();
  EXPECT_EQ(fired.load(), 2 * kRoots);
  EXPECT_EQ(early.load(), 0);
}

// A sleeping worker must wake for an earlier timer armed from another
// thread: the earlier one fires long before the later one is due.
TEST(RtEnvTest, EarlierTimerWakesSleepingWorker) {
  RtEnv env(1);
  std::atomic<bool> late_ran{false};
  std::atomic<bool> early_ran{false};
  std::atomic<bool> before_late{false};
  const SimTime late = env.now() + Duration::seconds(10);
  const TimerHandle late_h =
      env.schedule_on(0, late, [&] { late_ran.store(true); });
  // Let the worker go to sleep toward the later deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  env.schedule_on(0, env.now() + Duration::millis(1), [&] {
    before_late.store(env.now() < late && !late_ran.load());
    early_ran.store(true);
  });
  while (!early_ran.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(before_late.load()) << "wake-up for the earlier timer was lost";
  EXPECT_TRUE(env.cancel(late_h));
  env.wait_idle();
  EXPECT_FALSE(late_ran.load());
}

// An earlier timer armed while the worker may be polling toward a later
// deadline still fires first.  The driver arms it at staggered points in
// the last tens of microseconds before the later deadline, which is where
// the poll phase runs.  Order is only owed when the arm completed before
// the later deadline (a preempted driver may arm too late).
TEST(RtEnvTest, EarlierTimerArmedDuringPollFiresFirst) {
  RtEnv env(1);
  constexpr int kTrials = 200;
  std::vector<int> order;
  int checked = 0;
  for (int t = 0; t < kTrials; ++t) {
    order.clear();
    const SimTime late = env.now() + Duration::micros(60);
    env.schedule_on(0, late, [&order] { order.push_back(2); });
    const SimTime arm_at = late - Duration::micros(1 + t % 30);
    while (env.now() < arm_at) {
    }
    env.schedule_on(0, late - Duration::nanos(1),
                    [&order] { order.push_back(1); });
    const bool armed_in_time = env.now() < late;
    env.wait_idle();
    if (!armed_in_time) continue;
    ++checked;
    EXPECT_EQ(order, (std::vector<int>{1, 2})) << "trial " << t;
  }
  EXPECT_GT(checked, 0);
}

// The worker identity is per RtEnv: a worker of env A is a driver to env
// B, so B's affinity default (worker 0) applies, not A's worker index.
TEST(RtEnvTest, WorkerOfOneEnvIsADriverToAnother) {
  RtEnv a(2);
  RtEnv b(2);
  std::atomic<std::uint32_t> b_seen_from_a{0};
  std::atomic<std::uint32_t> b_fired_on{RtEnv::kNoWorker};
  a.post(1, [&] {
    b_seen_from_a.store(b.current_worker());
    b.schedule_at(b.now(), [&] { b_fired_on.store(b.current_worker()); });
  });
  a.wait_idle();
  b.wait_idle();
  EXPECT_EQ(b_seen_from_a.load(), RtEnv::kNoWorker);
  EXPECT_EQ(b_fired_on.load(), 0u);
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
