#include "chaos/explorer.h"

#include <algorithm>
#include <map>

#include "core/sweep.h"

namespace opc {
namespace {

/// Distinct Rng stream for schedule generation (arbitrary, fixed).
constexpr std::uint64_t kScheduleStream = 0xC4A05;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

Duration uniform_duration(Rng& rng, Duration lo, Duration hi) {
  return Duration::nanos(static_cast<std::int64_t>(rng.uniform_u64(
      static_cast<std::uint64_t>(lo.count_nanos()),
      static_cast<std::uint64_t>(hi.count_nanos()))));
}

/// "mds2" / "log.mds2" -> NodeId(2); nullopt when no digits.
std::optional<NodeId> victim_from_actor(const std::string& actor) {
  std::string digits;
  for (char c : actor) {
    if (c >= '0' && c <= '9') digits += c;
  }
  if (digits.empty()) return std::nullopt;
  return NodeId(static_cast<std::uint32_t>(std::stoul(digits)));
}

}  // namespace

const ScheduleOutcome* ExplorationReport::first_failure() const {
  for (const ScheduleOutcome& o : outcomes) {
    if (!o.result.passed) return &o;
  }
  return nullptr;
}

FaultSchedule random_schedule(Rng& rng, const ChaosRunConfig& base,
                              std::uint32_t max_faults) {
  FaultSchedule s;
  const Duration window = base.run_for;
  const auto n_faults = static_cast<std::uint32_t>(
      1 + rng.index(std::max<std::uint32_t>(max_faults, 1)));
  for (std::uint32_t i = 0; i < n_faults; ++i) {
    FaultEvent e;
    // Faults start inside [5%, 80%] of the window: late enough that the
    // workload is in flight, early enough that the window sees the fallout.
    e.at = uniform_duration(rng, window / 20, (window * 4) / 5);
    const auto victim =
        NodeId(static_cast<std::uint32_t>(rng.index(base.n_nodes)));
    switch (rng.index(6)) {
      case 0:
        e.kind = FaultKind::kCrash;
        e.node = victim;
        // 1-in-5 crashes stay down until the drain loop repairs them.
        e.duration = rng.bernoulli(0.2)
                         ? Duration::zero()
                         : uniform_duration(rng, Duration::millis(200),
                                            Duration::millis(1000));
        break;
      case 1: {
        e.kind = FaultKind::kPartition;
        e.node = victim;
        auto peer = NodeId(static_cast<std::uint32_t>(
            rng.index(base.n_nodes - 1)));
        if (peer.value() >= victim.value()) {
          peer = NodeId(peer.value() + 1);
        }
        e.peer = peer;
        e.asymmetric = rng.bernoulli(0.3);
        e.duration = uniform_duration(rng, Duration::millis(200),
                                      Duration::millis(1500));
        break;
      }
      case 2:
        e.kind = FaultKind::kDiskDegrade;
        e.node = victim;
        e.magnitude = rng.uniform(4.0, 64.0);
        e.duration = uniform_duration(rng, Duration::millis(300),
                                      Duration::millis(2000));
        break;
      case 3:
        e.kind = FaultKind::kHeartbeatMute;
        e.node = victim;
        e.duration = uniform_duration(rng, Duration::millis(300),
                                      Duration::millis(1500));
        break;
      case 4:
        e.kind = FaultKind::kMessageLoss;
        e.magnitude = rng.uniform(0.01, 0.15);
        e.duration = uniform_duration(rng, Duration::millis(300),
                                      Duration::millis(2000));
        break;
      default:
        e.kind = FaultKind::kDelayJitter;
        e.magnitude = rng.uniform(50.0, 1000.0);  // µs
        e.duration = uniform_duration(rng, Duration::millis(300),
                                      Duration::millis(2000));
        break;
    }
    s.events.push_back(e);
  }
  // 1-in-4 schedules also get a trace trigger: crash a random node right
  // after one of its early forced-write completions.
  if (rng.bernoulli(0.25)) {
    TraceTrigger t;
    t.on = TraceKind::kLogForceDone;
    const auto victim =
        NodeId(static_cast<std::uint32_t>(rng.index(base.n_nodes)));
    t.actor = "log." + victim.str();
    t.occurrence = static_cast<std::uint32_t>(1 + rng.index(20));
    t.victim = victim;
    t.reboot_after = uniform_duration(rng, Duration::millis(200),
                                      Duration::millis(800));
    s.triggers.push_back(std::move(t));
  }
  return s;
}

std::vector<FaultSchedule> enumerate_crash_points(const ChaosRunConfig& base,
                                                  std::uint32_t limit) {
  // Fault-free probe run: run_schedule's cluster + workload, traced,
  // stopped at the measurement window (no drain or checking needed).
  Simulator sim;
  StatsRegistry stats;
  TraceRecorder trace(true);
  ChaosWorkload w(sim, base, stats, trace);
  w.source.start();
  sim.run_until(SimTime::zero() + base.run_for);
  w.source.stop();

  // Every (kind, actor) pair's first few occurrences is one crash point:
  // "power off that node right as this history point is reached".
  const TraceKind kinds[] = {TraceKind::kLogForceStart,
                             TraceKind::kLogForceDone,
                             TraceKind::kMessageSend};
  constexpr std::uint32_t kPerPairCap = 3;  // first N occurrences each
  std::map<std::pair<TraceKind, std::string>, std::uint32_t> seen;
  std::vector<FaultSchedule> out;
  for (const TraceEvent& ev : trace.events()) {
    if (out.size() >= limit) break;
    if (std::find(std::begin(kinds), std::end(kinds), ev.kind) ==
        std::end(kinds)) {
      continue;
    }
    const auto victim = victim_from_actor(ev.actor);
    if (!victim || victim->value() >= base.n_nodes) continue;
    auto& count = seen[{ev.kind, ev.actor}];
    if (count >= kPerPairCap) continue;
    ++count;
    TraceTrigger t;
    t.on = ev.kind;
    t.actor = ev.actor;
    t.occurrence = count;
    t.victim = *victim;
    t.reboot_after = Duration::millis(400);
    FaultSchedule s;
    s.triggers.push_back(std::move(t));
    out.push_back(std::move(s));
  }
  return out;
}

ExplorationReport explore(const ExplorerConfig& cfg) {
  // Generate every schedule up front (sequential, seed-derived), then fan
  // the runs out across the sweep runner's thread pool; results come back
  // in input order, so the report is deterministic.
  std::vector<ScheduleOutcome> pending;
  Rng rng(cfg.seed, kScheduleStream);
  for (std::uint32_t i = 0; i < cfg.n_schedules; ++i) {
    ScheduleOutcome o;
    o.index = i;
    o.seed = cfg.seed + i;
    o.schedule = random_schedule(rng, cfg.base, cfg.max_faults);
    pending.push_back(std::move(o));
  }
  if (cfg.systematic) {
    ChaosRunConfig probe = cfg.base;
    probe.seed = cfg.seed;
    auto points = enumerate_crash_points(probe, cfg.max_systematic);
    for (auto& s : points) {
      ScheduleOutcome o;
      o.index = static_cast<std::uint32_t>(pending.size());
      o.seed = cfg.seed;  // same workload as the probe that found the point
      o.systematic = true;
      o.schedule = std::move(s);
      pending.push_back(std::move(o));
    }
  }

  ExplorationReport report;
  report.outcomes = ParallelSweep::map<ScheduleOutcome, ScheduleOutcome>(
      pending,
      [&cfg](const ScheduleOutcome& in) {
        ScheduleOutcome out = in;
        ChaosRunConfig rc = cfg.base;
        rc.seed = in.seed;
        out.result = run_schedule(rc, in.schedule);
        return out;
      },
      cfg.threads);

  report.combined_hash = kFnvOffset;
  for (const ScheduleOutcome& o : report.outcomes) {
    if (o.result.passed) {
      ++report.passed;
    } else {
      ++report.failed;
    }
    report.combined_hash = fnv_u64(report.combined_hash, o.result.trace_hash);
  }
  return report;
}

}  // namespace opc
