// Model-checking the lock manager: thousands of randomized operation
// sequences (acquire with and without a timeout, time passing, release_all,
// crash reset) are executed against both the real LockManager and a
// deliberately naive reference model; observable behaviour (who got
// granted or timed out, in what order) must match exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>

#include "env/sim_env.h"
#include "lock/lock_manager.h"
#include "sim/rng.h"

namespace opc {
namespace {

/// Straight-line reference implementation: same spec (exclusive locks,
/// strict FIFO, reentrancy, per-request timeouts), written for obviousness
/// instead of efficiency.
class ReferenceLock {
 public:
  struct Event {
    std::uint64_t txn;
    std::uint64_t resource;
    bool timed_out;
    [[nodiscard]] bool operator==(const Event&) const = default;
  };

  std::vector<Event> events;  // in order — the observable behaviour

  /// `deadline_ns` < 0 means no timeout.
  void acquire(std::uint64_t txn, std::uint64_t res, std::int64_t deadline_ns) {
    State& s = locks_[res];
    if (s.owner == txn || s.owner == 0) {
      s.owner = txn;
      events.push_back({txn, res, false});
      return;
    }
    s.waiters.push_back({txn, deadline_ns, next_seq_++});
  }

  [[nodiscard]] bool queued(std::uint64_t txn, std::uint64_t res) const {
    auto it = locks_.find(res);
    if (it == locks_.end()) return false;
    return std::any_of(it->second.waiters.begin(), it->second.waiters.end(),
                       [txn](const Waiter& w) { return w.txn == txn; });
  }

  /// Time reaches `now_ns`: expire every due waiter, earliest deadline first
  /// (ties in request order).
  void advance(std::int64_t now_ns) {
    while (true) {
      State* due_state = nullptr;
      std::uint64_t due_res = 0;
      Waiter* due = nullptr;
      for (auto& [res, s] : locks_) {
        for (Waiter& w : s.waiters) {
          if (w.deadline_ns < 0 || w.deadline_ns > now_ns) continue;
          if (due == nullptr || w.deadline_ns < due->deadline_ns ||
              (w.deadline_ns == due->deadline_ns && w.seq < due->seq)) {
            due = &w;
            due_state = &s;
            due_res = res;
          }
        }
      }
      if (due == nullptr) return;
      events.push_back({due->txn, due_res, true});
      const std::uint64_t seq = due->seq;
      std::erase_if(due_state->waiters,
                    [seq](const Waiter& w) { return w.seq == seq; });
      pump(*due_state, due_res);
    }
  }

  void release_all(std::uint64_t txn) {
    for (auto& [res, s] : locks_) {
      std::erase_if(s.waiters,
                    [txn](const Waiter& w) { return w.txn == txn; });
    }
    for (auto& [res, s] : locks_) {
      if (s.owner == txn) s.owner = 0;
      pump(s, res);
    }
  }

  void reset() { locks_.clear(); }

  [[nodiscard]] bool holds(std::uint64_t txn, std::uint64_t res) const {
    auto it = locks_.find(res);
    return it != locks_.end() && it->second.owner == txn;
  }

  [[nodiscard]] std::size_t waiting_count(std::uint64_t res) const {
    auto it = locks_.find(res);
    return it == locks_.end() ? 0 : it->second.waiters.size();
  }

 private:
  struct Waiter {
    std::uint64_t txn;
    std::int64_t deadline_ns;
    std::uint64_t seq;
  };
  struct State {
    std::uint64_t owner = 0;
    std::deque<Waiter> waiters;
  };

  void pump(State& s, std::uint64_t res) {
    while (s.owner == 0 && !s.waiters.empty()) {
      s.owner = s.waiters.front().txn;
      s.waiters.pop_front();
      events.push_back({s.owner, res, false});
    }
  }

  std::map<std::uint64_t, State> locks_;
  std::uint64_t next_seq_ = 0;
};

TEST(LockModelCheck, RandomSequencesMatchReference) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Simulator sim;
    SimEnv env(sim);
    StatsRegistry stats;
    TraceRecorder trace(false);
    LockManager real(env, "model", stats, trace);
    ReferenceLock ref;
    std::vector<ReferenceLock::Event> real_events;
    Rng rng(seed, 0x10DE1);

    constexpr std::uint64_t kTxns = 8;
    constexpr std::uint64_t kResources = 4;
    std::vector<bool> alive(kTxns + 1, false);
    std::int64_t now_ns = 0;

    for (int step = 0; step < 400; ++step) {
      const std::uint64_t txn = 1 + rng.index(kTxns);
      const double op = rng.uniform01();
      if (op < 0.02) {
        // Crash: the whole table goes, and no callback fires.
        real.reset();
        ref.reset();
        std::fill(alive.begin(), alive.end(), false);
      } else if (op < 0.17) {
        now_ns += static_cast<std::int64_t>(rng.index(20)) * 1'000'000;
        sim.run_until(SimTime::zero() + Duration::nanos(now_ns));
        ref.advance(now_ns);
      } else if (!alive[txn] || op < 0.75) {
        alive[txn] = true;
        const std::uint64_t res = 1 + rng.index(kResources);
        // A transaction queues at most once per resource.
        if (ref.queued(txn, res)) continue;
        Duration timeout = Duration::zero();
        std::int64_t deadline_ns = -1;
        if (rng.bernoulli(0.5)) {
          timeout = Duration::millis(1 + static_cast<int>(rng.index(30)));
          deadline_ns = now_ns + timeout.count_nanos();
        }
        real.acquire(
            txn, res,
            [&real_events, txn, res] {
              real_events.push_back({txn, res, false});
            },
            timeout,
            [&real_events, txn, res] {
              real_events.push_back({txn, res, true});
            });
        ref.acquire(txn, res, deadline_ns);
      } else {
        alive[txn] = false;
        real.release_all(txn);
        ref.release_all(txn);
      }

      // Observable equivalence after every step.  The order is only
      // specified per resource (FIFO within one queue); release_all may
      // pump independent resources in any order, so compare per-resource
      // sequences.
      ASSERT_EQ(real_events.size(), ref.events.size())
          << "seed " << seed << " step " << step;
      for (std::uint64_t r = 1; r <= kResources; ++r) {
        std::vector<ReferenceLock::Event> real_seq, ref_seq;
        for (const auto& e : real_events) {
          if (e.resource == r) real_seq.push_back(e);
        }
        for (const auto& e : ref.events) {
          if (e.resource == r) ref_seq.push_back(e);
        }
        ASSERT_EQ(real_seq, ref_seq)
            << "seed " << seed << " step " << step << " resource " << r;
        ASSERT_EQ(real.waiting_count(r), ref.waiting_count(r))
            << "seed " << seed << " step " << step << " resource " << r;
        for (std::uint64_t t = 1; t <= kTxns; ++t) {
          ASSERT_EQ(real.holds(t, r), ref.holds(t, r))
              << "seed " << seed << " step " << step;
        }
      }
    }
  }
}

TEST(SimModelCheck, RandomScheduleCancelMatchesReferenceOrder) {
  // The simulator's dispatch order must equal a stable sort of the
  // surviving events by (time, insertion sequence).
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Simulator sim;
    Rng rng(seed, 0x51A0);

    struct Planned {
      int id;
      std::int64_t at_us;
      EventHandle handle;
      bool cancelled = false;
    };
    std::vector<Planned> plan;
    std::vector<int> fired;

    const int n = 200;
    for (int i = 0; i < n; ++i) {
      Planned p;
      p.id = i;
      p.at_us = static_cast<std::int64_t>(rng.index(50));  // heavy ties
      p.handle = sim.schedule_after(Duration::micros(p.at_us),
                                    [&fired, i] { fired.push_back(i); });
      plan.push_back(p);
    }
    // Cancel a random ~30%.
    for (Planned& p : plan) {
      if (rng.bernoulli(0.3)) {
        p.cancelled = true;
        EXPECT_TRUE(sim.cancel(p.handle));
      }
    }
    sim.run();

    std::vector<int> expected;
    std::vector<const Planned*> sorted;
    for (const Planned& p : plan) {
      if (!p.cancelled) sorted.push_back(&p);
    }
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Planned* a, const Planned* b) {
                       return a->at_us < b->at_us;
                     });
    for (const Planned* p : sorted) expected.push_back(p->id);
    ASSERT_EQ(fired, expected) << "seed " << seed;
  }
}

}  // namespace
}  // namespace opc
