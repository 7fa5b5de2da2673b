#include "rt/rt_env.h"

#include <algorithm>
#include <utility>

#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace opc {

namespace {
// Which RtEnv and worker the calling thread is, for scheduling affinity and
// for arm()'s self-notify check.  The pair matters: worker 1 of one RtEnv
// is a driver thread to every other RtEnv.
thread_local const RtEnv* tl_env = nullptr;
thread_local std::uint32_t tl_worker = 0;

// Ceiling on the learned lead: a host stall that makes one sleep wake very
// late must not turn every later wait into a long spin.
constexpr std::int64_t kMaxLeadNs = 20'000;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}
}  // namespace

RtEnv::RtEnv(std::uint32_t n_workers, std::uint64_t seed)
    : start_(std::chrono::steady_clock::now()) {
  SIM_CHECK_MSG(n_workers >= 1 && n_workers <= 255,
                "RtEnv supports 1..255 workers");
  workers_.reserve(n_workers);
  for (std::uint32_t i = 0; i < n_workers; ++i) {
    // Distinct per-worker stream on the shared seed; the constant matches
    // SimEnv's stream tag so sim-vs-rt code paths draw from the same family.
    workers_.push_back(std::make_unique<Worker>(seed, 0xE4411u + i));
  }
  for (std::uint32_t i = 0; i < n_workers; ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

RtEnv::~RtEnv() { stop(); }

void RtEnv::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& w : workers_) {
    {
      std::lock_guard<std::mutex> lk(w->mu);
      w->stopping = true;
      w->front_ns.store(INT64_MIN, std::memory_order_release);  // ends a poll
    }
    w->cv.notify_all();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

SimTime RtEnv::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  return SimTime::from_nanos(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
}

std::uint32_t RtEnv::current_worker() const {
  return tl_env == this ? tl_worker : kNoWorker;
}

TimerHandle RtEnv::schedule_at(SimTime when, Callback cb) {
  const std::uint32_t w = current_worker();
  return arm(w == kNoWorker ? 0 : w, when, std::move(cb));
}

TimerHandle RtEnv::schedule_on(std::uint32_t worker, SimTime when,
                               Callback cb) {
  SIM_CHECK_MSG(worker < workers_.size(), "schedule_on: no such worker");
  return arm(worker, when, std::move(cb));
}

TimerHandle RtEnv::arm(std::uint32_t index, SimTime when, Callback cb) {
  Worker& w = *workers_[index];
  pending_.fetch_add(1, std::memory_order_seq_cst);
  EventHandle h;
  bool new_front;
  {
    std::lock_guard<std::mutex> lk(w.mu);
    // Only a new earliest deadline changes what the worker waits for; an
    // equal one queues behind the current head (FIFO).
    new_front =
        w.timers.empty() || when.count_nanos() < w.timers.top_when();
    h = w.timers.push(when.count_nanos(), std::move(cb));
    if (new_front) {
      w.front_ns.store(when.count_nanos(), std::memory_order_release);
    }
  }
  // The worker itself is running a callback, not waiting: nothing to wake.
  if (new_front && current_worker() != index) w.cv.notify_one();
  return TimerHandle{(index << kSlotBits) | h.slot(), h.gen()};
}

bool RtEnv::cancel(TimerHandle h) {
  if (!h.valid()) return false;
  const std::uint32_t index = h.slot() >> kSlotBits;
  if (index >= workers_.size()) return false;
  Worker& w = *workers_[index];
  {
    std::lock_guard<std::mutex> lk(w.mu);
    if (!w.timers.cancel(EventHandle{h.slot() & kSlotMask, h.gen()})) {
      return false;
    }
  }
  pending_.fetch_sub(1, std::memory_order_seq_cst);
  return true;
}

Rng& RtEnv::rng() {
  const std::uint32_t w = current_worker();
  return workers_[w == kNoWorker ? 0 : w]->rng;
}

void RtEnv::worker_loop(std::uint32_t index) {
  tl_env = this;
  tl_worker = index;
#ifdef __linux__
  // Linux lets a timed wait of a normal thread oversleep by its timer slack,
  // 50 us by default: half of a 100 us modeled hop, added to every hop,
  // disk completion and compute cost.  1 ns leaves only the wake-up
  // latency (docs/RUNTIME.md §4, "Timer precision").
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  using Clock = std::chrono::steady_clock;
  Worker& w = *workers_[index];
  std::uint64_t polled_seq = 0;  // timer whose wait ended in a poll
  std::unique_lock<std::mutex> lk(w.mu);
  while (true) {
    if (w.stopping) return;
    if (w.timers.empty()) {
      ++w.sleeps;
      w.cv.wait(lk);
      continue;
    }
    const std::int64_t when_ns = w.timers.top_when();
    const std::uint64_t seq = w.timers.top_seq();
    const auto deadline = start_ + std::chrono::nanoseconds(when_ns);
    const auto fire_time = Clock::now();
    if (fire_time < deadline) {
      w.front_ns.store(when_ns, std::memory_order_relaxed);
      const auto wake_at = deadline - std::chrono::nanoseconds(w.lead_ns);
      if (fire_time < wake_at) {
        // Phase 1: sleep until the lead before the deadline.  A timed-out
        // sleep teaches the lead how late this worker wakes.
        ++w.sleeps;
        if (w.cv.wait_until(lk, wake_at) == std::cv_status::timeout) {
          const std::int64_t late = std::min<std::int64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - wake_at)
                  .count(),
              kMaxLeadNs);
          w.lead_ns += (late - w.lead_ns) / 8;
        }
        continue;  // re-examine: an earlier timer may have arrived meanwhile
      }
      // Phase 2: poll the clock until the deadline, unless arm() brings an
      // earlier timer or stop() is called.
      lk.unlock();
      while (w.front_ns.load(std::memory_order_acquire) >= when_ns) {
        if (Clock::now() >= deadline) {
          polled_seq = seq;
          break;
        }
        cpu_relax();
      }
      lk.lock();
      continue;  // re-examine: the head may have been cancelled meanwhile
    }
    ++w.fired;
    if (seq == polled_seq) ++w.polled;
    w.late_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     fire_time - deadline)
                     .count();
    Callback cb = w.timers.pop();
    lk.unlock();
    cb();  // run-to-completion; may schedule on any worker
    // Decrement only after the callback finished so wait_idle()'s zero
    // reading implies "nothing running" — anything the callback scheduled
    // was already counted before this drop.
    pending_.fetch_sub(1, std::memory_order_seq_cst);
    lk.lock();
  }
}

void RtEnv::export_stats(StatsRegistry& stats) const {
  std::int64_t fired = 0;
  std::int64_t late_ns = 0;
  std::int64_t polled = 0;
  std::int64_t sleeps = 0;
  for (const auto& w : workers_) {
    std::lock_guard<std::mutex> lk(w->mu);
    fired += w->fired;
    late_ns += w->late_ns;
    polled += w->polled;
    sleeps += w->sleeps;
  }
  stats.add("rt.timer.fired", fired);
  stats.add("rt.timer.late_ns", late_ns);
  stats.add("rt.timer.polled", polled);
  stats.add("rt.worker.sleeps", sleeps);
}

void RtEnv::wait_idle() {
  while (pending_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // Synchronize with every worker's last dispatch so state written by
  // callbacks is visible to the caller.
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lk(w->mu);
  }
}

}  // namespace opc
