// serve_mix: the served path under open-loop Poisson load.
//
// Each round builds a fresh 3-node 1PC RtCluster (0 us modeled hop, 2 GiB/s
// modeled log device) behind an in-process RpcServer on a Unix socket, and
// connects two RpcClients; all of that is the round's set-up time.  Two
// generator threads then offer 6000 ops/s in total for the round's window:
// an 80/10/10 create/mkdir/rename mix over directories 1..3, uniform.
// Renames only move names whose create was acknowledged, so every request
// is valid.  Latency runs from each request's scheduled arrival, so a
// stall also delays the requests queued behind it (no coordinated
// omission).  After the window the generators collect their stragglers,
// the server drains and the stores are checked.
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "mds/invariants.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rt/rt_cluster.h"
#include "sim/rng.h"
#include "stats/counters.h"

namespace pb {
namespace {

constexpr std::uint32_t kNodes = 3;
constexpr std::uint32_t kClients = 2;
constexpr double kRate = 6000.0;    // offered ops/s, all clients together
constexpr double kWindowS = 0.25;   // latency percentiles per window
constexpr std::uint32_t kSetupSamples = 4;  // extra set-ups per round
constexpr double kDrainS = 10.0;    // straggler budget after the window
constexpr double kFineS = 0.0011;   // switch to non-blocking checks
constexpr std::chrono::duration<double> kStep{20e-6};

double wall_now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// One generator thread's tally.
struct Gen {
  std::uint64_t sent = 0, aborted = 0, busy = 0, not_found = 0,
                bad = 0, timeouts = 0, shutdown = 0, lost = 0,
                in_window = 0;
  bool transport_error = false;
  std::string error;
  std::vector<opc::Histogram> lat_ns;  // per window of scheduled time
  opc::Histogram late_ns;              // send time - scheduled time

  [[nodiscard]] std::uint64_t failed() const {
    return aborted + busy + not_found + bad + timeouts + shutdown + lost +
           (transport_error ? 1 : 0);
  }
};

struct Pending {
  double scheduled = 0.0;
  std::uint64_t dir = 0;
  std::string name;  // the entry the request creates (or renames into)
};

void generate(opc::rpc::RpcClient& client, std::uint64_t seed,
              std::uint32_t t, double start, double window, Gen& g) {
  // Default timer slack (50 us) would blur the arrival schedule.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  opc::Rng rng(seed, /*stream=*/t + 1);
  const opc::Duration mean_gap =
      opc::Duration::from_seconds_f(kClients / kRate);
  const double end = start + window;
  g.lat_ns.resize(static_cast<std::size_t>(window / kWindowS) + 1);
  std::unordered_map<std::uint64_t, Pending> pending;
  std::unordered_map<std::uint64_t, std::vector<std::string>> confirmed;
  std::uint64_t seq = 0;
  bool broken = false;

  const auto consume = [&](const opc::rpc::Reply& rep) {
    const double now = wall_now();
    const auto it = pending.find(rep.id);
    if (it == pending.end()) return;
    const Pending& p = it->second;
    using opc::rpc::Status;
    switch (rep.status) {
      case Status::kOk:
        confirmed[p.dir].push_back(p.name);
        break;
      case Status::kAborted: ++g.aborted; break;
      case Status::kBusy: ++g.busy; break;
      case Status::kNotFound: ++g.not_found; break;
      case Status::kBadRequest: ++g.bad; break;
      case Status::kTimeout: ++g.timeouts; break;
      case Status::kShutdown: ++g.shutdown; break;
    }
    if (rep.status == Status::kOk || rep.status == Status::kAborted) {
      const auto w = static_cast<std::size_t>((p.scheduled - start) / kWindowS);
      g.lat_ns[std::min(w, g.lat_ns.size() - 1)].record(
          (now - p.scheduled) * 1e9);
      if (now <= end) ++g.in_window;
    }
    pending.erase(it);
  };

  double scheduled = start;
  while (!broken) {
    scheduled += rng.exponential(mean_gap).to_seconds_f();
    if (scheduled >= end) break;
    // Wait for the arrival time while absorbing replies.  RpcClient polls
    // in whole milliseconds (plus one), so the last stretch before a send
    // checks the socket without blocking and sleeps in short steps.
    for (double gap = scheduled - wall_now(); gap > 0;
         gap = scheduled - wall_now()) {
      opc::rpc::Reply rep;
      if (client.recv_reply(rep, gap > kFineS ? gap - kFineS : 0.0)) {
        consume(rep);
      } else if (client.broken()) {
        broken = true;
        break;
      } else if (gap <= kFineS) {
        std::this_thread::sleep_for(std::min(
            kStep, std::chrono::duration<double>(gap)));
      }
    }
    if (broken) break;

    const double u = rng.uniform01();
    const auto dir = 1 + static_cast<std::uint64_t>(rng.index(kNodes));
    Pending p;
    p.scheduled = scheduled;
    p.dir = dir;
    p.name = std::to_string(t);
    p.name += '_';
    p.name += std::to_string(seq++);
    auto& names = confirmed[dir];
    std::uint64_t id = 0;
    if (u >= 0.9 && !names.empty()) {
      const std::string src = std::move(names.back());
      names.pop_back();
      id = client.send_rename(dir, src, dir, p.name);
    } else {
      // Renames with nothing acknowledged yet fall back to creates.
      id = client.send_create(dir, p.name, /*is_dir=*/u >= 0.8 && u < 0.9);
    }
    ++g.sent;
    pending.emplace(id, std::move(p));
    if (!client.flush(1.0) && client.broken()) broken = true;
    g.late_ns.record((wall_now() - scheduled) * 1e9);
  }

  const double drain_end = wall_now() + kDrainS;
  while (!broken && !pending.empty() && wall_now() < drain_end) {
    opc::rpc::Reply rep;
    if (client.recv_reply(rep, std::min(1.0, drain_end - wall_now()))) {
      consume(rep);
    } else if (client.broken()) {
      broken = true;
    }
  }
  if (broken) {
    g.transport_error = true;
    g.error = client.error();
  }
  g.lost = pending.size();
}

struct Round {
  double setup_s = 0.0;
  double window_s = 0.0;
  std::vector<Gen> gens;
  opc::Histogram engine_lat_ns;
  opc::StatsRegistry rpc_stats;
  std::size_t dir_entries_max = 0;
  std::vector<std::string> violations;

  [[nodiscard]] std::uint64_t sent() const {
    std::uint64_t n = 0;
    for (const Gen& g : gens) n += g.sent;
    return n;
  }
  [[nodiscard]] std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const Gen& g : gens) n += g.failed();
    return n;
  }
  [[nodiscard]] double ops_s() const {
    std::uint64_t n = 0;
    for (const Gen& g : gens) n += g.in_window;
    return static_cast<double>(n) / window_s;
  }
};

/// The served system: a fresh cluster, its server and two connected
/// clients.  Building one is the workload's set-up.
class Stack {
 public:
  Stack(const Options& opt, std::uint64_t seed, std::uint32_t index)
      : cluster(cluster_config(seed)),
        // Relative to the working directory, which keeps the path inside
        // the checkout and short enough for sockaddr_un.
        path(opt.out_dir + "/serve-" + std::to_string(::getpid()) + "-" +
             std::to_string(index) + ".sock"),
        server(cluster, opc::rpc::RpcServerConfig{.uds_path = path}) {
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      dirs.emplace_back(i + 1);
      cluster.bootstrap_directory(dirs.back(), opc::NodeId(i));
    }
    if (!server.start()) {
      error = "server did not start on " + path;
      return;
    }
    for (std::uint32_t t = 0; t < kClients && error.empty(); ++t) {
      clients.push_back(std::make_unique<opc::rpc::RpcClient>());
      if (!clients.back()->connect_uds(path)) {
        error = "client cannot connect: " + clients.back()->error();
      }
    }
  }
  ~Stack() {
    clients.clear();
    server.stop();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  opc::RtCluster cluster;
  std::string path;
  opc::rpc::RpcServer server;
  std::vector<opc::ObjectId> dirs;
  std::vector<std::unique_ptr<opc::rpc::RpcClient>> clients;
  std::string error;

 private:
  static opc::RtClusterConfig cluster_config(std::uint64_t seed) {
    opc::RtClusterConfig cfg;
    cfg.n_nodes = kNodes;
    cfg.protocol = opc::ProtocolKind::kOnePC;
    cfg.net.latency = opc::Duration::zero();
    cfg.disk.bytes_per_second = 2.0 * 1024 * 1024 * 1024;
    cfg.wal.force_pad_to = 8192;
    cfg.seed = seed;
    return cfg;
  }
};

/// Set-up time of one Stack (torn down untimed).
double setup_sample(const Options& opt, std::uint64_t seed,
                    std::uint32_t index, std::vector<std::string>& errors) {
  const auto t0 = Clock::now();
  const Stack stack(opt, seed, index);
  const double s = seconds_since(t0);
  if (!stack.error.empty()) errors.push_back(stack.error);
  return s;
}

Round serve_round(const Options& opt, std::uint64_t seed, double window,
                  std::uint32_t index) {
  Round r;
  r.window_s = window;
  const auto t0 = Clock::now();
  Stack stack(opt, seed, index);
  r.setup_s = seconds_since(t0);
  if (!stack.error.empty()) {
    r.violations.push_back(stack.error);
    return r;
  }
  opc::RtCluster& cluster = stack.cluster;
  opc::rpc::RpcServer& server = stack.server;
  const std::vector<opc::ObjectId>& dirs = stack.dirs;

  r.gens.resize(kClients);
  const double start = wall_now() + 0.01;  // one epoch for both generators
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kClients; ++t) {
    threads.emplace_back(generate, std::ref(*stack.clients[t]), seed, t, start,
                         window, std::ref(r.gens[t]));
  }
  for (std::thread& th : threads) th.join();

  server.stop();
  cluster.env().wait_idle();
  for (const auto& v : cluster.check_invariants(dirs)) {
    r.violations.push_back(std::string("invariant: ") +
                           opc::violation_kind_name(v.kind) + " " + v.detail);
  }
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    opc::MdsNode& node = cluster.node(opc::NodeId(i));
    r.engine_lat_ns.merge(node.engine().client_latency());
    r.dir_entries_max =
        std::max(r.dir_entries_max, node.store().mem_list_dir(dirs[i]).size());
  }
  server.export_stats(r.rpc_stats);
  for (const Gen& g : r.gens) {
    if (g.lost != 0) r.violations.push_back("lost " + std::to_string(g.lost));
    if (g.transport_error) r.violations.push_back("transport: " + g.error);
    if (g.bad != 0) r.violations.push_back("bad " + std::to_string(g.bad));
  }
  return r;
}

}  // namespace

void run_serve_mix(const Options& opt, Result& out) {
  // Rounds of a fixed window, each on a fresh cluster and server, so
  // set-up is sampled several times and one stalled round cannot own the
  // tail.  The smoke pass uses a shorter window.
  const double window = opt.smoke ? 1.0 : 3.0;
  const double round_cost = window + 0.3;  // set-up, drain, teardown
  const std::uint32_t n_rounds = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(opt.seconds / round_cost));

  // Extra set-ups beside each round's own, so setup_s is a median of many
  // samples taken under the run's conditions.
  std::vector<Round> rounds;
  std::vector<double> setup;
  std::uint32_t index = 0;
  for (std::uint32_t i = 0; i < n_rounds; ++i) {
    const std::uint64_t seed = opt.seed * 1000003ULL + i;
    for (std::uint32_t k = 0; !opt.trace && k < kSetupSamples; ++k) {
      setup.push_back(setup_sample(opt, seed, index++, out.violations));
    }
    rounds.push_back(serve_round(opt, seed, window, index++));
  }

  std::uint64_t sent = 0, failed = 0;
  for (const Round& r : rounds) {
    sent += r.sent();
    failed += r.failed();
    for (const auto& v : r.violations) out.violations.push_back(v);
  }
  out.attempted = sent;
  out.failed = failed;
  out.gate(failed == 0, "serve_mix fail_ratio must be 0 at the fixed rate, "
                        "got " + std::to_string(failed) + " failed of " +
                        std::to_string(sent));

  std::vector<double> ops_s, p50, p99;
  opc::Histogram lat, engine, late;
  opc::StatsRegistry rpc;
  std::size_t dir_entries = 0;
  for (const Round& r : rounds) {
    if (r.gens.empty()) continue;  // never started; already a violation
    setup.push_back(r.setup_s);
    ops_s.push_back(r.ops_s());
    for (const Gen& g : r.gens) late.merge(g.late_ns);
    for (std::size_t w = 0; w < r.gens.front().lat_ns.size(); ++w) {
      opc::Histogram win;
      for (const Gen& g : r.gens) win.merge(g.lat_ns[w]);
      lat.merge(win);
      // Skip the rounding sliver past the last whole window.
      if (win.count() >= kRate * kWindowS / 2) {
        p50.push_back(q_ms(win, 0.5));
        p99.push_back(q_ms(win, 0.99));
      }
    }
    engine.merge(r.engine_lat_ns);
    rpc.merge(r.rpc_stats);
    dir_entries = std::max(dir_entries, r.dir_entries_max);
  }

  if (!opt.trace) {
    out.add("setup_s", median(setup), "s", setup.size());
    out.add("ops_s", median(ops_s), "1/s", ops_s.size());
    // Medians over windows: a host stall that spans a few windows moves
    // none of them.
    out.add("lat_p50_ms", median(p50), "ms", p50.size());
    out.add("lat_p99_ms", median(p99), "ms", p99.size());
    out.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    out.notes.push_back(
        "latencies are medians of per-" + std::to_string(kWindowS) +
        "s-window percentiles; pooled p50 " + std::to_string(q_ms(lat, 0.5)) +
        " ms, p99 " + std::to_string(q_ms(lat, 0.99)) + " ms over " +
        std::to_string(lat.count()) + " replies");
    out.notes.push_back(
        "fail_ratio " + std::to_string(sent ? static_cast<double>(failed) /
                                                  static_cast<double>(sent)
                                            : 0.0) +
        " (aborted+busy+timeout+lost+transport over sent)");
    return;
  }

  const double requests = static_cast<double>(rpc.get("rpc.requests"));
  out.add("acp.engine_lat_ms.p50", q_ms(engine, 0.5), "ms", engine.count());
  out.add("rpc.outside_engine_ms.p50", q_ms(lat, 0.5) - q_ms(engine, 0.5),
          "ms", lat.count());
  out.add("rpc.busy_ratio",
          requests > 0 ? static_cast<double>(rpc.get("rpc.busy")) / requests
                       : 0.0,
          "ratio", static_cast<std::uint64_t>(requests));
  out.add("gen.late_us.p99", q_us(late, 0.99), "us",
          beyond(late.count(), 0.99));
  out.add("mds.dir_entries.max", static_cast<double>(dir_entries), "count", 1);
  // The served path runs the stock RtCluster, so the traced run adds no
  // tracing to compare against.
  out.add("trace.overhead", 1.0, "ratio", rounds.size());
  out.notes.push_back("trace.overhead is 1 by construction: the served path "
                      "is measured from the client clock, the engines' "
                      "histograms and export_stats, with no tracing added");
}

}  // namespace pb
