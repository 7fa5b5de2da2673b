// Kernel micro-benchmarks (google-benchmark): the substrate's raw speed —
// event queue throughput, record codec, lock manager, and a full small
// simulation per iteration.  These guard against performance regressions
// in the simulator itself; simulated-time results live in the other
// benches.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "cluster/cluster.h"
#include "env/sim_env.h"
#include "lock/lock_manager.h"
#include "mds/namespace.h"
#include "sim/simulator.h"
#include "wal/record.h"
#include "workload/source.h"

namespace {

using namespace opc;

void BM_EventScheduleDispatch(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    std::uint64_t sink = 0;
    for (int i = 0; i < batch; ++i) {
      sim.schedule_after(Duration::nanos(i % 977), [&sink] { ++sink; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventScheduleDispatch)->Arg(1024)->Arg(16384);

void BM_EventCancel(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    std::vector<EventHandle> handles;
    handles.reserve(1024);
    for (int i = 0; i < 1024; ++i) {
      handles.push_back(sim.schedule_after(Duration::micros(1), [] {}));
    }
    for (EventHandle& h : handles) sim.cancel(h);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventCancel);

void BM_RecordEncodeDecode(benchmark::State& state) {
  LogRecord rec;
  rec.type = RecordType::kUpdate;
  rec.txn = 12345;
  rec.writer = NodeId(3);
  rec.modeled_bytes = 8192;
  rec.payload.assign(256, 0xAB);
  for (auto _ : state) {
    std::vector<std::uint8_t> buf;
    encode_record(rec, buf);
    std::size_t off = 0;
    auto got = decode_record(buf, off);
    benchmark::DoNotOptimize(got);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordEncodeDecode);

void BM_LockAcquireRelease(benchmark::State& state) {
  Simulator sim;
  SimEnv env(sim);
  StatsRegistry stats;
  TraceRecorder trace(false);
  LockManager lm(env, "bench", stats, trace);
  std::uint64_t txn = 1;
  for (auto _ : state) {
    lm.acquire(txn, txn % 64, [] {});
    lm.release_all(txn);
    ++txn;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockAcquireRelease);

void BM_FullCreateTransaction(benchmark::State& state) {
  // Wall-clock cost of simulating one full distributed CREATE end to end.
  const auto proto = static_cast<ProtocolKind>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    StatsRegistry stats;
    TraceRecorder trace(false);
    ClusterConfig cc;
    cc.n_nodes = 2;
    cc.protocol = proto;
    Cluster cluster(sim, cc, stats, trace);
    IdAllocator ids;
    const ObjectId dir = ids.next();
    PinnedPartitioner part(2, NodeId(1));
    part.assign(dir, NodeId(0));
    cluster.bootstrap_directory(dir, NodeId(0));
    NamespacePlanner planner(part, OpCosts{});
    cluster.submit(planner.plan_create(dir, "f", ids.next(), false),
                   [](TxnId, TxnOutcome) {});
    sim.run();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(protocol_name(proto)));
}
BENCHMARK(BM_FullCreateTransaction)
    ->Arg(static_cast<int>(ProtocolKind::kPrN))
    ->Arg(static_cast<int>(ProtocolKind::kOnePC));

void BM_SimulatedSecondOfStorm(benchmark::State& state) {
  // Wall-clock cost per simulated second of the Figure 6 workload — the
  // figure that bounds how fast sweeps run.
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    StatsRegistry stats;
    TraceRecorder trace(false);
    ClusterConfig cc;
    cc.n_nodes = 2;
    cc.protocol = ProtocolKind::kOnePC;
    Cluster cluster(sim, cc, stats, trace);
    IdAllocator ids;
    const ObjectId dir = ids.next();
    PinnedPartitioner part(2, NodeId(1));
    part.assign(dir, NodeId(0));
    cluster.bootstrap_directory(dir, NodeId(0));
    NamespacePlanner planner(part, OpCosts{});
    ThroughputMeter meter;
    SourceConfig scfg;
    scfg.concurrency = 100;
    CreateStormSource source(cluster.env(), cluster, scfg, meter, stats, planner, ids,
                             dir);
    source.start();
    state.ResumeTiming();
    sim.run_until(SimTime::zero() + Duration::seconds(1));
  }
}
BENCHMARK(BM_SimulatedSecondOfStorm);

}  // namespace

// Custom main instead of benchmark_main: `--smoke` (the bench ctest label's
// single-pass mode, see bench/smoke.h) maps onto the shortest measurement
// window google-benchmark 1.7 accepts, so every benchmark body runs but
// none is repeated for statistics.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  static char min_time[] = "--benchmark_min_time=0.001";
  if (smoke) args.push_back(min_time);
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
