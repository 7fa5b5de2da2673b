// Real-time Env: the same protocol code, on real threads and a real clock.
//
// RtEnv implements opc::Env over std::chrono::steady_clock with one worker
// thread per node.  Each worker keeps its timers in the simulator's own
// EventQueue (src/sim/event_queue.h), guarded by the worker's mutex, and
// executes callbacks strictly one at a time, so every component wired to
// a single node — engine, WAL, lock manager, disk model — keeps the
// simulator's run-to-completion, single-threaded execution model without
// any code change.  Cross-node
// concurrency is real: workers run in parallel and interact only through
// the Transport (src/rt/rt_transport.h) and explicit cross-thread
// schedule_on / post calls.
//
// Affinity rule: schedule_at()/schedule_after() called from a worker thread
// lands on that worker's own queue (thread-local affinity); called from a
// non-worker thread (the driver) it lands on worker 0.  A thread is a worker
// only of the RtEnv that spawned it: a worker of another RtEnv counts as a
// driver here.  Drivers that need a specific target use post()/schedule_on().
//
// Timed waits have two phases: a worker sleeps on its condition variable
// until the deadline minus its learned wake-up lateness (the "lead"), then
// polls the clock for the rest, so a timer fires close to its deadline and
// never before it.  docs/RUNTIME.md §4 ("Timer precision") has the details.
//
// What RtEnv does NOT promise (vs SimEnv): no global event order, no
// deterministic tie-breaking across workers, and now() advances whether or
// not anyone is looking.  docs/RUNTIME.md spells out the full contract.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "env/env.h"
#include "sim/event_queue.h"
#include "stats/counters.h"

namespace opc {

class RtEnv final : public Env {
 public:
  /// Spawns `n_workers` threads (one per node).  Workers idle until the
  /// first schedule.  `seed` derives each worker's private rng() stream.
  explicit RtEnv(std::uint32_t n_workers, std::uint64_t seed = 1);

  /// Stops and joins all workers; pending timers are discarded.
  ~RtEnv() override;

  // --- Env ---
  /// Nanoseconds of steady_clock time since this RtEnv was constructed,
  /// presented on the simulated-time axis so timer math is shared.
  [[nodiscard]] SimTime now() const override;
  /// Schedules on the calling worker's queue (worker 0 from outside).
  TimerHandle schedule_at(SimTime when, Callback cb) override;
  bool cancel(TimerHandle h) override;
  /// The calling worker's private stream (worker 0's from outside).
  [[nodiscard]] Rng& rng() override;

  // --- RtEnv-only surface (drivers and RtTransport) ---
  [[nodiscard]] std::uint32_t workers() const {
    return static_cast<std::uint32_t>(workers_.size());
  }

  /// Schedules on a specific worker's queue from any thread.
  TimerHandle schedule_on(std::uint32_t worker, SimTime when, Callback cb);

  /// Runs `cb` on `worker` as soon as it drains earlier-scheduled work.
  void post(std::uint32_t worker, Callback cb) {
    schedule_on(worker, now(), std::move(cb));
  }

  /// Worker index of the calling thread, or kNoWorker outside the pool.
  static constexpr std::uint32_t kNoWorker = 0xFFFFFFFF;
  [[nodiscard]] std::uint32_t current_worker() const;

  /// Blocks until no timer is pending and no callback is running anywhere —
  /// i.e. the system has gone quiescent.  Only meaningful once the workload
  /// has stopped injecting new root events.
  void wait_idle();

  /// Stops and joins all workers (idempotent; the destructor calls it).
  void stop();

  /// Adds the dispatch counters, summed over workers, to `stats`:
  /// rt.timer.fired (timers whose callback ran), rt.timer.late_ns (their
  /// summed fire time minus due time), rt.timer.polled (fired timers whose
  /// wait ended in the poll phase) and rt.worker.sleeps (condition-variable
  /// waits).  Cancelled timers count in none.  Read after wait_idle() for a
  /// complete tally.
  void export_stats(StatsRegistry& stats) const;

 private:
  // A timer handle packs the worker index into the top byte of
  // TimerHandle::slot() and the worker queue's slot into the low 24 bits.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;

  struct Worker {
    std::mutex mu;
    std::condition_variable cv;
    EventQueue timers;
    std::int64_t fired = 0;    // dispatch counters; see export_stats()
    std::int64_t late_ns = 0;
    std::int64_t polled = 0;
    std::int64_t sleeps = 0;
    bool stopping = false;
    // Earliest deadline: set by the worker before each wait, lowered by
    // arm() when a new timer becomes the earliest, set to the minimum by
    // stop().  Written under `mu`; the poll phase reads it without.
    std::atomic<std::int64_t> front_ns{INT64_MAX};
    // EWMA of how late this worker's timed sleeps woke; touched only by
    // the worker thread.
    std::int64_t lead_ns = 0;
    Rng rng;
    std::thread thread;

    Worker(std::uint64_t seed, std::uint64_t stream) : rng(seed, stream) {}
  };

  void worker_loop(std::uint32_t index);
  TimerHandle arm(std::uint32_t index, SimTime when, Callback cb);

  std::chrono::steady_clock::time_point start_;
  std::vector<std::unique_ptr<Worker>> workers_;
  // Timers armed or callbacks executing, across all workers.  Zero means
  // quiescent; wait_idle() polls it.
  std::atomic<std::int64_t> pending_{0};
  bool stopped_ = false;
};

}  // namespace opc
