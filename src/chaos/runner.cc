#include "chaos/runner.h"

#include "obs/assembler.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace opc {
namespace {

bool parse_protocol(const std::string& s, ProtocolKind& out) {
  std::string lower = s;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  for (ProtocolKind p : kAllProtocolsExt) {
    std::string name(protocol_name(p));
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower == name) {
      out = p;
      return true;
    }
  }
  return false;
}

ClusterConfig cluster_config(const ChaosRunConfig& cfg,
                             obs::PhaseLog* phase_log) {
  ClusterConfig cc;
  cc.n_nodes = cfg.n_nodes;
  cc.protocol = cfg.protocol;
  cc.seed = cfg.seed;
  cc.record_history = true;
  cc.acp.response_timeout = Duration::millis(300);
  cc.acp.retry_interval = Duration::millis(100);
  cc.acp.unsafe_skip_fencing = cfg.unsafe_skip_fencing;
  cc.heartbeat.enabled = true;
  cc.heartbeat.interval = Duration::millis(50);
  cc.heartbeat.suspicion_timeout = Duration::millis(250);
  cc.phase_log = phase_log;
  return cc;
}

std::vector<ObjectId> bootstrap_dirs(Cluster& cluster, IdAllocator& ids,
                                     const Partitioner& part,
                                     std::uint32_t n_dirs) {
  std::vector<ObjectId> dirs;
  for (std::uint32_t i = 0; i < n_dirs; ++i) {
    const ObjectId dir = ids.next();
    dirs.push_back(dir);
    cluster.bootstrap_directory(dir, part.home_of(dir));
  }
  return dirs;
}

SourceConfig source_config(const ChaosRunConfig& cfg) {
  SourceConfig scfg;
  scfg.concurrency = cfg.concurrency;
  scfg.client_timeout = Duration::seconds(1);
  return scfg;
}

}  // namespace

ChaosWorkload::ChaosWorkload(Simulator& sim, const ChaosRunConfig& cfg,
                             StatsRegistry& stats, TraceRecorder& trace,
                             obs::PhaseLog* phase_log)
    : cluster(sim, cluster_config(cfg, phase_log), stats, trace),
      part(cfg.n_nodes),
      planner(part, OpCosts{}),
      dirs(bootstrap_dirs(cluster, ids, part, cfg.n_dirs)),
      source(cluster.env(), cluster, source_config(cfg), meter, stats,
             planner, ids, dirs, MixedSource::Mix{0.6, 0.25}, cfg.seed,
             cfg.participants) {}

ChaosRunResult run_schedule(const ChaosRunConfig& cfg,
                            const FaultSchedule& schedule) {
  return run_schedule(cfg, schedule, nullptr);
}

ChaosRunResult run_schedule(const ChaosRunConfig& cfg,
                            const FaultSchedule& schedule,
                            obs::RunReport* report) {
  Simulator sim;
  StatsRegistry stats;
  TraceRecorder trace(true);  // hashes + trigger observers need the trace
  obs::PhaseLog phase_log;
  ChaosWorkload w(sim, cfg, stats, trace,
                  report != nullptr ? &phase_log : nullptr);
  Cluster& cluster = w.cluster;
  MixedSource& source = w.source;

  Nemesis nemesis(sim, cluster, trace);
  nemesis.install(schedule);
  source.start();

  // Run past both the workload window and every bounded fault window, so no
  // timed fault fires into the healed, draining cluster.
  const Duration window =
      std::max(cfg.run_for, schedule.horizon() + Duration::seconds(1));
  sim.run_until(SimTime::zero() + window);
  source.stop();
  nemesis.disarm();
  nemesis.heal();

  // Drain to quiescence.  Crashed nodes are rebooted every round: a single
  // attempt is not enough because STONITH may still hold a victim down
  // (reboot_node no-ops until the fencing round releases it).
  bool drained = false;
  const SimTime deadline = sim.now() + Duration::seconds(600);
  while (sim.now() < deadline) {
    for (std::uint32_t i = 0; i < cluster.size(); ++i) {
      cluster.reboot_node(NodeId(i));
    }
    sim.run_for(Duration::seconds(1));
    bool quiescent = true;
    for (std::uint32_t i = 0; i < cluster.size(); ++i) {
      const NodeId id(i);
      if (!cluster.node(id).alive() ||
          cluster.engine(id).active_coordinations() != 0 ||
          cluster.engine(id).active_participations() != 0) {
        quiescent = false;
        break;
      }
    }
    if (quiescent) {
      drained = true;
      break;
    }
  }

  CheckContext ctx{cluster.env(), cluster, stats, w.dirs, drained,
                   [&sim](Duration d) { sim.run_for(d); }};
  ChaosRunResult r;
  r.failures = run_checkers(ctx);
  r.passed = r.failures.empty();
  r.committed = source.committed();
  r.aborted = source.aborted();
  r.lost = source.lost();
  r.triggers_fired = nemesis.triggers_fired();
  // Hash last: it covers the drain and the durability power cycle too, so a
  // replay must reproduce the *entire* history byte-for-byte.
  r.trace_hash = trace.history_hash();

  if (report != nullptr) {
    const obs::SpanSet spans = obs::assemble_spans(trace.events(), &phase_log);
    Histogram latency;
    for (std::uint32_t i = 0; i < cluster.size(); ++i) {
      latency.merge(cluster.engine(NodeId(i)).client_latency());
    }
    obs::ReportInputs in;
    in.meta.protocol = std::string(protocol_name(cfg.protocol));
    in.meta.workload = "chaos";
    in.meta.seed = cfg.seed;
    in.meta.nodes = static_cast<int>(cfg.n_nodes);
    in.meta.sim_duration_ns = sim.now().count_nanos();
    in.spans = &spans;
    in.stats = &stats;
    in.latency = &latency;
    in.committed = static_cast<std::int64_t>(r.committed);
    in.aborted = static_cast<std::int64_t>(r.aborted);
    in.lost = static_cast<std::int64_t>(r.lost);
    in.ops_per_second = w.meter.events_per_second_over(cfg.run_for);
    in.trace_hash = r.trace_hash;
    std::istringstream lines(render_schedule(schedule));
    for (std::string line; std::getline(lines, line);) {
      if (!line.empty()) in.faults.push_back(line);
    }
    *report = obs::build_report(in);
  }
  return r;
}

std::string render_repro(const ChaosRunConfig& cfg,
                         const FaultSchedule& schedule) {
  std::string out =
      "# opc chaos repro — replay with: opc chaos --replay <this file>\n";
  out += "proto=" + std::string(protocol_name(cfg.protocol)) + "\n";
  out += "nodes=" + std::to_string(cfg.n_nodes) + "\n";
  out += "seed=" + std::to_string(cfg.seed) + "\n";
  out += "concurrency=" + std::to_string(cfg.concurrency) + "\n";
  out += "dirs=" + std::to_string(cfg.n_dirs) + "\n";
  // Emitted only for wide runs so pre-existing repro files stay byte-stable.
  if (cfg.participants != 2) {
    out += "participants=" + std::to_string(cfg.participants) + "\n";
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "run_ns=%" PRId64 "\n",
                cfg.run_for.count_nanos());
  out += buf;
  if (cfg.unsafe_skip_fencing) out += "bug_skip_fencing=1\n";
  out += render_schedule(schedule);
  return out;
}

bool parse_repro(const std::string& text, ChaosRunConfig& cfg,
                 FaultSchedule& schedule) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("fault", 0) == 0 || line.rfind("trigger", 0) == 0) {
      if (!parse_schedule_line(line, schedule)) return false;
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    const std::string key = line.substr(0, eq);
    const std::string val = line.substr(eq + 1);
    char* end = nullptr;
    if (key == "proto") {
      if (!parse_protocol(val, cfg.protocol)) return false;
    } else if (key == "nodes") {
      cfg.n_nodes = static_cast<std::uint32_t>(
          std::strtoul(val.c_str(), &end, 10));
      if (!end || *end != '\0') return false;
    } else if (key == "seed") {
      cfg.seed = std::strtoull(val.c_str(), &end, 10);
      if (!end || *end != '\0') return false;
    } else if (key == "concurrency") {
      cfg.concurrency = static_cast<std::uint32_t>(
          std::strtoul(val.c_str(), &end, 10));
      if (!end || *end != '\0') return false;
    } else if (key == "dirs") {
      cfg.n_dirs = static_cast<std::uint32_t>(
          std::strtoul(val.c_str(), &end, 10));
      if (!end || *end != '\0') return false;
    } else if (key == "participants") {
      cfg.participants = static_cast<std::uint32_t>(
          std::strtoul(val.c_str(), &end, 10));
      if (!end || *end != '\0') return false;
    } else if (key == "run_ns") {
      cfg.run_for = Duration::nanos(std::strtoll(val.c_str(), &end, 10));
      if (!end || *end != '\0') return false;
    } else if (key == "bug_skip_fencing") {
      cfg.unsafe_skip_fencing = (val == "1");
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace opc
