// chaos: seed-derived random fault schedules through chaos::explore().
//
// Two explorer threads each claim the next schedule index k and explore it
// with explore() (one schedule per call), so every call's wall time is one
// schedule's latency as its user sees it.  Schedule k runs 1PC when k is
// even and PrN when odd, on 3 nodes; its master seed is derived from
// --seed and k, so the whole workload is a pure function of the seed and
// only wall time varies.
//
// Set-up is the fault-free reference runs (eight per protocol) that show
// the harness is green without faults.
//
// The traced run replays the explored schedules through run_schedule with
// a RunReport, times each call, and checks that every trace hash — and so
// the combined hash — matches the timed exploration.
#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "chaos/explorer.h"
#include "chaos/runner.h"
#include "common.h"
#include "obs/report.h"

namespace pb {
namespace {

constexpr unsigned kThreads = 2;
constexpr std::uint64_t kReferenceRuns = 16;
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// The explorer's combined-hash step (FNV-1a over a trace hash's bytes).
std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

opc::ChaosRunConfig base_config(std::uint64_t k) {
  opc::ChaosRunConfig c;
  c.protocol = k % 2 == 0 ? opc::ProtocolKind::kOnePC : opc::ProtocolKind::kPrN;
  c.n_nodes = 3;
  return c;
}

std::uint64_t master_seed(std::uint64_t seed, std::uint64_t k) {
  return seed * 0x9E3779B97F4A7C15ULL + k * 0xBF58476D1CE4E5B9ULL + 1;
}

struct Explored {
  std::uint64_t k = 0;
  double ms = 0.0;
  bool passed = false;
  std::uint64_t trace_hash = 0;
  std::uint64_t combined_hash = 0;  // explore()'s, over this one schedule
  std::uint64_t run_seed = 0;
  opc::FaultSchedule schedule;
};

/// Runs `work(k)` for k = 0, 1, ... on kThreads threads until `budget`
/// seconds pass (at least `min_items`, at most `max_items` items); returns
/// the wall seconds used.
template <typename F>
double fan_out(double budget, std::size_t min_items, std::size_t max_items,
               F work) {
  std::atomic<std::size_t> next{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t k = next.fetch_add(1);
        if (k >= max_items || (k >= min_items && seconds_since(t0) >= budget)) {
          return;
        }
        work(k);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  return seconds_since(t0);
}

std::vector<Explored> explore_for(const Options& opt, double budget,
                                  std::size_t min_items, double& wall) {
  std::mutex mu;
  std::vector<Explored> out;
  wall = fan_out(budget, min_items, SIZE_MAX, [&](std::size_t k) {
    opc::ExplorerConfig ec;
    ec.base = base_config(k);
    ec.n_schedules = 1;
    ec.seed = master_seed(opt.seed, k);
    ec.threads = 1;
    const auto t0 = Clock::now();
    opc::ExplorationReport rep = opc::explore(ec);
    Explored e;
    e.ms = seconds_since(t0) * 1e3;
    e.k = k;
    e.passed = rep.failed == 0;
    e.combined_hash = rep.combined_hash;
    e.trace_hash = rep.outcomes.at(0).result.trace_hash;
    e.run_seed = rep.outcomes.at(0).seed;
    e.schedule = std::move(rep.outcomes.at(0).schedule);
    std::lock_guard<std::mutex> lk(mu);
    out.push_back(std::move(e));
  });
  std::sort(out.begin(), out.end(),
            [](const Explored& a, const Explored& b) { return a.k < b.k; });
  return out;
}

void gate_explored(const std::vector<Explored>& ex, Result& out) {
  for (const Explored& e : ex) {
    ++out.attempted;
    if (!e.passed) {
      ++out.failed;
      out.violations.push_back("schedule " + std::to_string(e.k) +
                               " failed its checkers");
    }
  }
}

}  // namespace

void run_chaos(const Options& opt, Result& out) {
  const std::size_t min_items = opt.smoke ? 4 : 20;
  const auto t_start = Clock::now();
  if (!opt.trace) {
    // Fault-free reference runs: the set-up every exploration trusts.  They
    // do not depend on --seed, so their time varies only with the host;
    // half run before the exploration and half after it.
    std::vector<double> setup;
    const auto reference = [&](std::uint64_t first) {
      for (std::uint64_t k = first; k < first + kReferenceRuns / 2; ++k) {
        opc::ChaosRunConfig rc = base_config(k);
        rc.seed = k + 1;
        const auto t0 = Clock::now();
        const opc::ChaosRunResult r =
            opc::run_schedule(rc, opc::FaultSchedule{});
        setup.push_back(seconds_since(t0));
        out.gate(r.passed, "fault-free reference run " + std::to_string(k) +
                               " failed its checkers");
      }
    };
    reference(0);
    const double one_half = seconds_since(t_start);
    double wall = 0.0;
    const std::vector<Explored> ex =
        explore_for(opt, opt.seconds - 2 * one_half, min_items, wall);
    reference(kReferenceRuns / 2);
    gate_explored(ex, out);
    std::vector<double> ms;
    for (const Explored& e : ex) ms.push_back(e.ms);
    out.add("setup_s", median(setup), "s", setup.size());
    out.add("ops_s", static_cast<double>(ex.size()) / wall, "1/s", ex.size());
    out.add("lat_p50_ms", quantile(ms, 0.5), "ms", ms.size());
    out.add("lat_p99_ms", quantile(ms, 0.99), "ms", beyond(ms.size(), 0.99));
    out.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    out.notes.push_back("on chaos an op is one explored schedule: ops_s is "
                        "schedules_s, latency is per explore() call");
    out.notes.push_back(
        "fail_ratio " + std::to_string(static_cast<double>(out.failed) /
                                       static_cast<double>(ex.size())) +
        " (failed schedules over explored)");
    return;
  }

  // Traced run: explore for half the budget, then replay those schedules
  // with a RunReport for the other half.
  double base_wall = 0.0;
  const std::vector<Explored> ex =
      explore_for(opt, opt.seconds / 2, min_items, base_wall);
  gate_explored(ex, out);

  std::mutex mu;
  std::vector<std::pair<std::size_t, double>> replay_ms;
  std::map<std::size_t, opc::obs::RunReport> reports;
  const double wall =
      fan_out(opt.seconds / 2, std::min(min_items, ex.size()), ex.size(),
              [&](std::size_t i) {
                opc::ChaosRunConfig rc = base_config(ex[i].k);
                rc.seed = ex[i].run_seed;
                opc::obs::RunReport rep;
                const auto t0 = Clock::now();
                const opc::ChaosRunResult r =
                    opc::run_schedule(rc, ex[i].schedule, &rep);
                const double ms = seconds_since(t0) * 1e3;
                std::lock_guard<std::mutex> lk(mu);
                replay_ms.emplace_back(i, ms);
                rep.trace_hash = r.trace_hash;
                reports.emplace(i, std::move(rep));
              });

  // Hash check over the replayed prefix of the exploration.
  std::uint64_t explored_hash = kFnvOffset;
  std::uint64_t replayed_hash = kFnvOffset;
  std::size_t prefix = 0;
  for (; prefix < ex.size() && reports.count(prefix) != 0; ++prefix) {
    out.gate(fnv_u64(kFnvOffset, ex[prefix].trace_hash) ==
                 ex[prefix].combined_hash,
             "explore() combined hash disagrees with its trace hash");
    explored_hash = fnv_u64(explored_hash, ex[prefix].trace_hash);
    replayed_hash = fnv_u64(replayed_hash, reports.at(prefix).trace_hash);
  }
  out.gate(explored_hash == replayed_hash,
           "combined_hash differs between the timed and the traced run");
  out.gate(prefix > 0, "the traced run replayed no schedule");

  std::vector<double> ms;
  std::int64_t recoveries = 0, fences = 0, committed = 0, sent = 0;
  std::int64_t forces = 0, force_bytes = 0, immediate = 0, queued = 0;
  for (const auto& [i, t] : replay_ms) ms.push_back(t);
  for (const auto& [i, rep] : reports) {
    const auto c = [&](const char* name) {
      const auto it = rep.counters.find(name);
      return it == rep.counters.end() ? std::int64_t{0} : it->second;
    };
    recoveries += c("acp.recoveries");
    fences += c("storage.fences");
    committed += rep.committed;
    sent += c("net.sent");
    forces += c("wal.force.count");
    force_bytes += c("wal.force.bytes");
    immediate += c("lock.grants.immediate");
    queued += c("lock.grants.queued");
  }
  if (!reports.empty()) {
    opc::obs::RunReport last = reports.rbegin()->second;
    last.meta.workload = "chaos";
    write_text(opt.out_dir + "/REPORT_chaos.json",
               opc::obs::report_to_json(last));
  }
  const auto n = static_cast<double>(std::max<std::size_t>(reports.size(), 1));
  const auto per_op = [&](std::int64_t v) {
    return committed > 0 ? static_cast<double>(v) /
                               static_cast<double>(committed)
                         : 0.0;
  };
  const auto cn = static_cast<std::uint64_t>(committed);
  out.add("chaos.schedule_ms.p50", quantile(ms, 0.5), "ms", ms.size());
  out.add("chaos.schedule_ms.p99", quantile(ms, 0.99), "ms",
          beyond(ms.size(), 0.99));
  out.add("chaos.recoveries_per_schedule", static_cast<double>(recoveries) / n,
          "count", reports.size());
  out.add("chaos.fences_per_schedule", static_cast<double>(fences) / n,
          "count", reports.size());
  out.add("net.msgs_per_op", per_op(sent), "count", cn);
  out.add("wal.forces_per_op", per_op(forces), "count", cn);
  out.add("wal.force_bytes_per_op", per_op(force_bytes), "B", cn);
  out.add("lock.queued_ratio",
          immediate + queued > 0 ? static_cast<double>(queued) /
                                       static_cast<double>(immediate + queued)
                                 : 0.0,
          "ratio", static_cast<std::uint64_t>(immediate + queued));
  const double base_rate = static_cast<double>(ex.size()) / base_wall;
  const double traced_rate = static_cast<double>(reports.size()) / wall;
  out.add("trace.overhead", traced_rate / base_rate, "ratio", reports.size());
  out.notes.push_back("replayed " + std::to_string(prefix) + " of " +
                      std::to_string(ex.size()) +
                      " explored schedules with equal trace hashes");
}

}  // namespace pb
