// storm_1pc / storm_prn: the paper's Fig. 6 create storm on real threads.
//
// Shape (fixed; only the cluster seed follows --seed, because the storm
// plan is timing-independent by construction): 3 nodes, one hot directory
// per node, two-party creates, 64 outstanding per node, 100 us modeled
// hop, 2 GiB/s modeled log device with 8 KiB padded forces.
//
// A run is a sequence of rounds, each on a fresh cluster: the plan and the
// cluster are built inside the round's set-up time, then the closed loop
// drains the plan.  Untimed runs go through RtCluster::run_storm.  The
// traced run wires the same components itself (TracedStorm) so every node
// gets a recording TraceRecorder and PhaseLog, and Env/Transport are
// wrapped in the counting decorators of instrument.h.
#include <algorithm>
#include <cctype>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/node.h"
#include "common.h"
#include "instrument.h"
#include "mds/invariants.h"
#include "obs/assembler.h"
#include "obs/report.h"
#include "rt/rt_cluster.h"
#include "rt/storm_plan.h"

namespace pb {
namespace {

constexpr std::uint32_t kNodes = 3;
constexpr std::uint32_t kConcurrency = 64;

opc::RtClusterConfig storm_config(bool onepc, std::uint64_t seed) {
  opc::RtClusterConfig cfg;
  cfg.n_nodes = kNodes;
  cfg.protocol = onepc ? opc::ProtocolKind::kOnePC : opc::ProtocolKind::kPrN;
  cfg.net.latency = opc::Duration::micros(100);
  cfg.disk.bytes_per_second = 2.0 * 1024 * 1024 * 1024;
  cfg.wal.force_pad_to = 8192;
  cfg.seed = seed;
  return cfg;
}

/// What one round hands back, whichever wiring ran it.
struct Round {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t planned = 0;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  opc::Histogram latency;  // engines' merged client latency, ns
  std::vector<std::string> violations;

  [[nodiscard]] double ops_s() const {
    return wall_s > 0.0 ? static_cast<double>(committed) / wall_s : 0.0;
  }
};

void gate_round(Round& r, const std::vector<opc::InvariantViolation>& inv) {
  for (const auto& v : inv) {
    r.violations.push_back(std::string("invariant: ") +
                           opc::violation_kind_name(v.kind) + " " + v.detail);
  }
  if (r.committed != r.planned) {
    r.violations.push_back("committed " + std::to_string(r.committed) +
                           " != planned " + std::to_string(r.planned));
  }
}

Round plain_round(const opc::RtClusterConfig& cfg, std::uint32_t ops) {
  Round r;
  const auto t0 = Clock::now();
  const opc::StormPlan plan = opc::make_storm_plan(kNodes, ops);
  auto cluster = std::make_unique<opc::RtCluster>(cfg);
  r.setup_s = seconds_since(t0);
  const opc::RtCluster::StormResult res =
      cluster->run_storm(plan, kConcurrency);
  r.wall_s = res.wall_seconds;
  r.planned = static_cast<std::uint64_t>(kNodes) * ops;
  r.committed = res.committed;
  r.aborted = res.aborted;
  r.latency = res.latency;
  gate_round(r, cluster->check_invariants(plan.dirs));
  return r;
}

/// Set-up time of one plan + cluster (torn down untimed).
double setup_sample(const opc::RtClusterConfig& cfg, std::uint32_t ops) {
  const auto t0 = Clock::now();
  const opc::StormPlan plan = opc::make_storm_plan(kNodes, ops);
  const opc::RtCluster cluster(cfg);
  return seconds_since(t0);
}

// ---------------------------------------------------------------------------
// Traced wiring: RtCluster's components, with recording sinks per node.
// ---------------------------------------------------------------------------

/// Per-layer numbers pooled across traced rounds.
struct Layers {
  opc::Histogram timer_late_ns, hop_late_ns;
  std::vector<double> worker_busy_max;  // per round
  std::uint64_t sends = 0, send_bytes = 0, committed = 0;
  std::int64_t forces = 0, force_bytes = 0;
  std::int64_t grants_immediate = 0, grants_queued = 0;
  std::map<std::string, opc::Histogram> phase_ns;  // by phase name
  opc::Histogram force_phase_ns;                   // all *_force phases
  opc::Histogram dir_hold_ns;                      // LK-GRANT -> LK-REL
  opc::Histogram engine_lat_ns;
  std::size_t dir_entries_max = 0;
};

class TracedStorm {
 public:
  explicit TracedStorm(const opc::RtClusterConfig& cfg)
      : cfg_(cfg), rt_(cfg.n_nodes, cfg.seed), env_(rt_),
        net_(rt_, cfg.net, cfg.seed), tnet_(net_, env_, cfg.net.latency),
        storage_(env_, storage_stats_, storage_trace_) {
    const opc::HeartbeatConfig hb;  // off, as in RtCluster
    for (std::uint32_t i = 0; i < cfg_.n_nodes; ++i) {
      const opc::NodeId id(i);
      auto pn = std::make_unique<PerNode>();
      opc::LogPartition& part =
          storage_.add_partition(id, cfg_.disk, pn->stats, pn->trace);
      pn->node = std::make_unique<opc::MdsNode>(
          env_, id, cfg_.protocol, cfg_.acp, cfg_.wal, hb, tnet_, storage_,
          part, pn->stats, pn->trace, nullptr, nullptr, &pn->phases);
      nodes_.push_back(std::move(pn));
    }
    for (std::uint32_t i = 0; i < cfg_.n_nodes; ++i) {
      std::vector<opc::NodeId> peers;
      for (std::uint32_t j = 0; j < cfg_.n_nodes; ++j) {
        if (j != i) peers.emplace_back(j);
      }
      nodes_[i]->node->set_peers(std::move(peers));
      nodes_[i]->node->start();
    }
  }

  ~TracedStorm() { rt_.stop(); }
  TracedStorm(const TracedStorm&) = delete;
  TracedStorm& operator=(const TracedStorm&) = delete;

  void bootstrap(const opc::StormPlan& plan) {
    for (std::uint32_t i = 0; i < cfg_.n_nodes; ++i) {
      opc::Inode ino;
      ino.id = plan.dirs[i];
      ino.is_dir = true;
      ino.nlink = 1;
      nodes_[i]->node->store().bootstrap_inode(ino);
    }
  }

  /// Closed loop over the plan, as RtCluster::run_storm drives it.
  /// Returns the storm's wall seconds; the cluster is idle afterwards.
  double run(const opc::StormPlan& plan) {
    for (std::uint32_t i = 0; i < cfg_.n_nodes; ++i) {
      nodes_[i]->items = &plan.per_node[i];
    }
    const auto t0 = Clock::now();
    for (std::uint32_t i = 0; i < cfg_.n_nodes; ++i) {
      rt_.post(i, [this, i] { timed_pump(i); });
    }
    {
      std::unique_lock<std::mutex> lk(done_mu_);
      done_cv_.wait(lk, [&] { return nodes_done_ == cfg_.n_nodes; });
    }
    const double wall = seconds_since(t0);
    rt_.wait_idle();
    return wall;
  }

  /// Folds this round into `round` and `layers`; writes REPORT.json to
  /// `report_path` when non-empty.  Call after run().
  void collect(double wall, const opc::StormPlan& plan, Round& round,
               Layers& layers, const std::string& report_path,
               const std::string& workload) const;

 private:
  struct PerNode {
    opc::StatsRegistry stats;
    opc::TraceRecorder trace{true};
    opc::obs::PhaseLog phases;
    std::unique_ptr<opc::MdsNode> node;
    const std::vector<opc::Transaction>* items = nullptr;
    std::size_t next = 0;
    std::uint32_t inflight = 0;
    bool done = false;
  };

  void timed_pump(std::uint32_t i) {
    WorkerSink& s = env_.sink();
    const opc::SimTime t0 = rt_.now();
    pump(i);
    s.busy_ns += (rt_.now() - t0).count_nanos();
  }

  void pump(std::uint32_t i) {
    PerNode& pn = *nodes_[i];
    while (pn.inflight < kConcurrency && pn.next < pn.items->size()) {
      opc::Transaction txn = (*pn.items)[pn.next++];
      ++pn.inflight;
      pn.node->engine().submit(std::move(txn),
                               [this, i](opc::TxnId, opc::TxnOutcome) {
                                 --nodes_[i]->inflight;
                                 pump(i);
                                 maybe_done(i);
                               });
    }
    maybe_done(i);
  }

  void maybe_done(std::uint32_t i) {
    PerNode& pn = *nodes_[i];
    if (pn.done || pn.inflight != 0 || pn.next < pn.items->size()) return;
    pn.done = true;
    std::lock_guard<std::mutex> lk(done_mu_);
    ++nodes_done_;
    done_cv_.notify_all();
  }

  opc::RtClusterConfig cfg_;
  opc::RtEnv rt_;
  TimedEnv env_;
  opc::RtTransport net_;
  TimedTransport tnet_;
  opc::StatsRegistry storage_stats_;
  opc::TraceRecorder storage_trace_{false};
  opc::SharedStorage storage_;
  std::vector<std::unique_ptr<PerNode>> nodes_;

  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::uint32_t nodes_done_ = 0;
};

/// Resource id of a lock event's detail ("X r12 (queued)", "r12"), or 0.
std::uint64_t lock_resource(const std::string& detail) {
  for (std::size_t p = 0; p + 1 < detail.size(); ++p) {
    if (detail[p] == 'r' && (p == 0 || detail[p - 1] == ' ') &&
        std::isdigit(static_cast<unsigned char>(detail[p + 1]))) {
      return std::stoull(detail.substr(p + 1));
    }
  }
  return 0;
}

void TracedStorm::collect(double wall, const opc::StormPlan& plan,
                          Round& round, Layers& layers,
                          const std::string& report_path,
                          const std::string& workload) const {
  round.wall_s = wall;
  opc::StatsRegistry stats;
  std::vector<opc::TraceEvent> events;
  std::vector<opc::obs::PhaseEvent> phase_events;
  std::vector<const opc::MetaStore*> stores;
  for (const auto& pn : nodes_) {
    const opc::AcpEngine& eng = pn->node->engine();
    round.committed += eng.committed_count();
    round.aborted += eng.aborted_count();
    round.latency.merge(eng.client_latency());
    stats.merge(pn->stats);
    events.insert(events.end(), pn->trace.events().begin(),
                  pn->trace.events().end());
    phase_events.insert(phase_events.end(), pn->phases.events().begin(),
                        pn->phases.events().end());
    stores.push_back(&pn->node->store());
  }
  stats.merge(storage_stats_);
  gate_round(round, opc::check_invariants(stores, plan.dirs));

  // One wall clock across workers: merge the per-node streams by time.
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) { return a.at < b.at; });
  std::stable_sort(phase_events.begin(), phase_events.end(),
                   [](const auto& a, const auto& b) { return a.at < b.at; });
  opc::obs::PhaseLog phases;
  for (const auto& e : phase_events) {
    phases.log(e.at, e.node, e.txn, e.phase, e.enter);
  }
  const opc::obs::SpanSet spans = opc::obs::assemble_spans(events, &phases);

  for (const opc::obs::Span& s : spans.spans) {
    if (s.kind != opc::obs::SpanKind::kPhase) continue;
    layers.phase_ns[s.name].record(static_cast<double>(s.duration_ns()));
    if (s.name.ends_with("_force")) {
      layers.force_phase_ns.record(static_cast<double>(s.duration_ns()));
    }
  }

  // Directory-lock hold: grant -> release of a hot directory's lock.
  std::map<std::tuple<std::string, std::uint64_t, std::uint64_t>,
           opc::SimTime>
      granted;
  for (const opc::TraceEvent& e : events) {
    if (e.kind != opc::TraceKind::kLockGrant &&
        e.kind != opc::TraceKind::kLockRelease) {
      continue;
    }
    const std::uint64_t res = lock_resource(e.detail);
    if (res < 1 || res > plan.n_nodes) continue;  // directories are 1..n
    const auto key = std::make_tuple(e.actor, e.txn, res);
    if (e.kind == opc::TraceKind::kLockGrant) {
      granted.emplace(key, e.at);
    } else if (auto it = granted.find(key); it != granted.end()) {
      layers.dir_hold_ns.record(e.at - it->second);
      granted.erase(it);
    }
  }

  std::int64_t busy_max = 0;
  for (const WorkerSink& s : env_.sinks()) {
    layers.timer_late_ns.merge(s.timer_late_ns);
    layers.hop_late_ns.merge(s.hop_late_ns);
    busy_max = std::max(busy_max, s.busy_ns);
  }
  layers.worker_busy_max.push_back(static_cast<double>(busy_max) /
                                   (wall * 1e9));
  layers.sends += tnet_.sends();
  layers.send_bytes += tnet_.bytes();
  layers.committed += round.committed;
  layers.forces += stats.get("wal.force.count");
  layers.force_bytes += stats.get("wal.force.bytes");
  layers.grants_immediate += stats.get("lock.grants.immediate");
  layers.grants_queued += stats.get("lock.grants.queued");
  layers.engine_lat_ns.merge(round.latency);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    layers.dir_entries_max =
        std::max(layers.dir_entries_max,
                 nodes_[i]->node->store().mem_list_dir(plan.dirs[i]).size());
  }

  if (report_path.empty()) return;
  opc::obs::ReportInputs in;
  in.meta.protocol =
      std::string(opc::protocol_name(cfg_.protocol));
  in.meta.workload = workload;
  in.meta.seed = cfg_.seed;
  in.meta.nodes = static_cast<int>(cfg_.n_nodes);
  in.meta.sim_duration_ns = static_cast<std::int64_t>(wall * 1e9);
  in.spans = &spans;
  in.stats = &stats;
  in.latency = &round.latency;
  in.committed = static_cast<std::int64_t>(round.committed);
  in.aborted = static_cast<std::int64_t>(round.aborted);
  in.ops_per_second = round.ops_s();
  if (!write_text(report_path,
                  opc::obs::report_to_json(opc::obs::build_report(in)))) {
    round.violations.push_back("cannot write " + report_path);
  }
}

Round traced_round(const opc::RtClusterConfig& cfg, std::uint32_t ops,
                   Layers& layers, const std::string& report_path,
                   const std::string& workload) {
  Round r;
  const auto t0 = Clock::now();
  const opc::StormPlan plan = opc::make_storm_plan(kNodes, ops);
  auto cluster = std::make_unique<TracedStorm>(cfg);
  cluster->bootstrap(plan);
  r.setup_s = seconds_since(t0);
  r.planned = static_cast<std::uint64_t>(kNodes) * ops;
  const double wall = cluster->run(plan);
  cluster->collect(wall, plan, r, layers, report_path, workload);
  return r;
}

/// Runs rounds until `budget` seconds are used (at least `min_rounds`),
/// never starting one the previous round's length says would overrun.
template <typename F>
std::vector<Round> rounds_for(double budget, std::size_t min_rounds, F f) {
  std::vector<Round> out;
  const auto t0 = Clock::now();
  double last = 0.0;
  while (out.size() < min_rounds || seconds_since(t0) + last <= budget) {
    const auto r0 = Clock::now();
    out.push_back(f());
    last = seconds_since(r0);
  }
  return out;
}

const opc::Histogram& phase(const Layers& l, const char* name) {
  static const opc::Histogram kNone;
  const auto it = l.phase_ns.find(name);
  return it == l.phase_ns.end() ? kNone : it->second;
}

void account(const std::vector<Round>& rounds, Result& out) {
  for (const Round& r : rounds) {
    out.attempted += r.planned;
    out.failed += r.planned - std::min(r.planned, r.committed);
    for (const auto& v : r.violations) out.violations.push_back(v);
  }
}

}  // namespace

void run_storm(const Options& opt, bool onepc, Result& out) {
  const opc::RtClusterConfig cfg = storm_config(onepc, opt.seed);
  // Short rounds: a host stall then spoils few of them, and the medians
  // over rounds stay put.  1500 commits still leave 15 beyond p99.
  const std::uint32_t ops = opt.smoke ? 100 : 500;  // per node per round
  const std::size_t min_rounds = opt.smoke ? 1 : 3;
  const auto plain = [&] { return plain_round(cfg, ops); };

  if (!opt.trace) {
    // Extra set-ups beside each round's own, spread over the run, so
    // setup_s is a median of many samples taken under the run's conditions.
    std::vector<double> setup;
    const std::vector<Round> rounds = rounds_for(opt.seconds, min_rounds, [&] {
      for (int i = 0; i < 2; ++i) setup.push_back(setup_sample(cfg, ops));
      return plain_round(cfg, ops);
    });
    account(rounds, out);
    // Medians over rounds: a host stall that spans a few rounds moves
    // none of them.
    std::vector<double> ops_s, p50, p99;
    opc::Histogram lat;
    for (const Round& r : rounds) {
      setup.push_back(r.setup_s);
      ops_s.push_back(r.ops_s());
      p50.push_back(q_ms(r.latency, 0.5));
      p99.push_back(q_ms(r.latency, 0.99));
      lat.merge(r.latency);
    }
    const auto n = static_cast<std::uint64_t>(rounds.size());
    out.add("setup_s", median(setup), "s", setup.size());
    out.add("ops_s", median(ops_s), "1/s", n);
    out.add("lat_p50_ms", median(p50), "ms", n);
    out.add("lat_p99_ms", median(p99), "ms", n);
    out.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    out.notes.push_back(
        "latencies are medians of per-round percentiles; pooled p50 " +
        std::to_string(q_ms(lat, 0.5)) + " ms, p99 " +
        std::to_string(q_ms(lat, 0.99)) + " ms over " +
        std::to_string(lat.count()) + " commits");
    out.notes.push_back(
        "fail_ratio " + std::to_string(static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted)) +
        " (aborted+missing over planned)");
    return;
  }

  // Traced run: half the budget untraced (the overhead baseline), half
  // traced; per-layer numbers pool the traced rounds.
  const std::vector<Round> base =
      rounds_for(opt.seconds / 2, 1, plain);
  Layers layers;
  const std::string workload = onepc ? "storm_1pc" : "storm_prn";
  const std::string report = opt.out_dir + "/REPORT_" + workload + ".json";
  bool first = true;
  const std::vector<Round> traced = rounds_for(opt.seconds / 2, 1, [&] {
    Round r = traced_round(cfg, ops, layers, first ? report : "", workload);
    first = false;
    return r;
  });
  account(base, out);
  account(traced, out);

  std::vector<double> base_ops, traced_ops;
  for (const Round& r : base) base_ops.push_back(r.ops_s());
  for (const Round& r : traced) traced_ops.push_back(r.ops_s());

  const double committed = static_cast<double>(std::max<std::uint64_t>(
      layers.committed, 1));
  const Layers& l = layers;
  out.add("rt.timer_late_us.p50", q_us(l.timer_late_ns, 0.5), "us",
          l.timer_late_ns.count());
  out.add("rt.timer_late_us.p99", q_us(l.timer_late_ns, 0.99), "us",
          beyond(l.timer_late_ns.count(), 0.99));
  out.add("rt.worker_busy.max", median(l.worker_busy_max), "ratio",
          l.worker_busy_max.size());
  out.add("net.msgs_per_op", static_cast<double>(l.sends) / committed,
          "count", l.committed);
  out.add("net.bytes_per_op", static_cast<double>(l.send_bytes) / committed,
          "B", l.committed);
  out.add("net.hop_late_us.p50", q_us(l.hop_late_ns, 0.5), "us",
          l.hop_late_ns.count());
  out.add("net.hop_late_us.p99", q_us(l.hop_late_ns, 0.99), "us",
          beyond(l.hop_late_ns.count(), 0.99));
  out.add("wal.forces_per_op", static_cast<double>(l.forces) / committed,
          "count", l.committed);
  out.add("wal.force_bytes_per_op",
          static_cast<double>(l.force_bytes) / committed, "B", l.committed);
  out.add("wal.force_us.p50", q_us(l.force_phase_ns, 0.5), "us",
          l.force_phase_ns.count());
  out.add("lock.hold_us.p50", q_us(l.dir_hold_ns, 0.5), "us",
          l.dir_hold_ns.count());
  const opc::Histogram& lock_wait = phase(l, "coord.lock");
  out.add("lock.wait_us.p50", q_us(lock_wait, 0.5), "us", lock_wait.count());
  out.add("lock.wait_us.p99", q_us(lock_wait, 0.99), "us",
          beyond(lock_wait.count(), 0.99));
  const auto grants = l.grants_immediate + l.grants_queued;
  out.add("lock.queued_ratio",
          grants > 0 ? static_cast<double>(l.grants_queued) /
                           static_cast<double>(grants)
                     : 0.0,
          "ratio", static_cast<std::uint64_t>(grants));
  const std::pair<const char*, const char*> acp_phases[] = {
      {"acp.update_round_us.p50", "coord.update_round"},
      {"acp.vote_round_us.p50", "coord.vote_round"},
      {"acp.ack_round_us.p50", "coord.ack_round"},
      {"acp.commit_force_us.p50", "coord.commit_force"},
      {"acp.worker_prepare_force_us.p50", "worker.prepare_force"},
      {"mds.local_update_us.p50", "coord.local_update"},
      {"mds.worker_update_us.p50", "worker.update"},
  };
  for (const auto& [metric, name] : acp_phases) {
    const opc::Histogram& h = phase(l, name);
    out.add(metric, q_us(h, 0.5), "us", h.count());
  }
  out.add("acp.engine_lat_ms.p50", q_ms(l.engine_lat_ns, 0.5), "ms",
          l.engine_lat_ns.count());
  out.add("mds.dir_entries.max", static_cast<double>(l.dir_entries_max),
          "count", 1);
  out.add("trace.overhead", median(traced_ops) / median(base_ops), "ratio",
          traced.size());
  out.notes.push_back("REPORT.json: " + report);
}

}  // namespace pb
