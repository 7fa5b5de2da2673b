// Schedule exploration: generation determinism, report reproducibility,
// systematic crash-point enumeration (and its probe's workload width), and
// the four-protocol smoke — 50
// random schedules per paper protocol (200 total) with every checker green,
// and replays of schedules that once failed.
#include <gtest/gtest.h>

#include "chaos/explorer.h"

namespace opc {
namespace {

ExplorerConfig smoke_cfg(ProtocolKind proto, std::uint32_t n_schedules,
                         std::uint64_t seed) {
  ExplorerConfig cfg;
  cfg.base.protocol = proto;
  cfg.n_schedules = n_schedules;
  cfg.seed = seed;
  return cfg;
}

TEST(RandomSchedules, GenerationIsSeedDeterministicAndBounded) {
  ChaosRunConfig base;
  Rng a(7, 0xC4A05);
  Rng b(7, 0xC4A05);
  for (int i = 0; i < 32; ++i) {
    const FaultSchedule sa = random_schedule(a, base, 4);
    const FaultSchedule sb = random_schedule(b, base, 4);
    EXPECT_EQ(sa, sb);
    EXPECT_GE(sa.size(), 1u);
    // Up to max_faults timed events, plus at most one trace trigger.
    EXPECT_LE(sa.events.size(), 4u);
    EXPECT_LE(sa.triggers.size(), 1u);
  }
}

TEST(Exploration, ReportIsByteIdenticalAcrossReruns) {
  const ExplorerConfig cfg = smoke_cfg(ProtocolKind::kOnePC, 10, 42);
  const ExplorationReport a = explore(cfg);
  const ExplorationReport b = explore(cfg);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  EXPECT_EQ(a.combined_hash, b.combined_hash);
  EXPECT_EQ(a.passed, b.passed);
  EXPECT_EQ(a.failed, b.failed);
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].schedule, b.outcomes[i].schedule);
    EXPECT_EQ(a.outcomes[i].result.trace_hash, b.outcomes[i].result.trace_hash);
  }
}

TEST(Exploration, SystematicModeEnumeratesCrashPoints) {
  ExplorerConfig cfg = smoke_cfg(ProtocolKind::kOnePC, 2, 11);
  cfg.systematic = true;
  cfg.max_systematic = 8;
  const ExplorationReport r = explore(cfg);
  ASSERT_GT(r.outcomes.size(), 2u) << "systematic schedules must be appended";
  std::size_t systematic = 0;
  for (const ScheduleOutcome& o : r.outcomes) {
    if (!o.systematic) continue;
    ++systematic;
    EXPECT_EQ(o.schedule.events.size(), 0u);
    EXPECT_EQ(o.schedule.triggers.size(), 1u);
  }
  EXPECT_GT(systematic, 0u);
  EXPECT_LE(systematic, 8u);
  EXPECT_EQ(r.failed, 0u);
}

TEST(Exploration, CrashPointProbeRunsTheConfiguredWidth) {
  // The probe must run the workload its schedules replay: at three
  // participants per create it sees a different history, so it yields
  // different crash points than at two.
  ChaosRunConfig two;
  two.seed = 11;
  ChaosRunConfig three = two;
  three.participants = 3;
  const std::vector<FaultSchedule> a = enumerate_crash_points(two, 64);
  const std::vector<FaultSchedule> b = enumerate_crash_points(three, 64);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_NE(a, b);
}

// PrN schedule 3857 of exploration seed 12.  The coordinator times out
// waiting for UPDATED and aborts; the partition drops its ABORT; the worker
// later vetoes the update.  The veto is the worker's only acknowledgement
// of the abort round, and the coordination used to stay open forever on
// it ("mds0 holds 1 active coordinations").
TEST(Regression, VetoAfterCoordinatorAbortFinishesTheAbortRound) {
  const std::string repro =
      "proto=PrN\n"
      "nodes=3\n"
      "seed=5451000016064145734\n"
      "concurrency=6\n"
      "dirs=4\n"
      "run_ns=8000000000\n"
      "fault kind=heartbeat_mute node=0 at_ns=3926306134 dur_ns=1163842465\n"
      "fault kind=partition node=0 peer=2 at_ns=962151017 dur_ns=247858116\n"
      "fault kind=crash node=1 at_ns=2997770991 dur_ns=865266262\n"
      "fault kind=disk_degrade node=2 at_ns=6325750843 dur_ns=1011156216 "
      "mag=43.076732365012546\n";
  ChaosRunConfig cfg;
  FaultSchedule schedule;
  ASSERT_TRUE(parse_repro(repro, cfg, schedule));
  ASSERT_EQ(schedule.events.size(), 4u);
  const ChaosRunResult r = run_schedule(cfg, schedule);
  std::string detail;
  for (const CheckFailure& cf : r.failures) {
    detail += "  [" + cf.oracle + "] " + cf.detail + "\n";
  }
  EXPECT_TRUE(r.passed) << detail;
  EXPECT_GT(r.committed, 0u);
}

class ProtocolSmoke : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ProtocolSmoke, FiftyRandomSchedulesAllCheckersGreen) {
  const ExplorationReport r = explore(smoke_cfg(GetParam(), 50, 7));
  EXPECT_EQ(r.passed, 50u);
  if (r.failed != 0) {
    const ScheduleOutcome* f = r.first_failure();
    ASSERT_NE(f, nullptr);
    std::string detail;
    for (const CheckFailure& cf : f->result.failures) {
      detail += "  [" + cf.oracle + "] " + cf.detail + "\n";
    }
    ADD_FAILURE() << "schedule #" << f->index << " (seed " << f->seed
                  << ") failed:\n"
                  << detail << render_schedule(f->schedule);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPaperProtocols, ProtocolSmoke,
                         ::testing::ValuesIn(kAllProtocols),
                         [](const ::testing::TestParamInfo<ProtocolKind>& i) {
                           return std::string(protocol_name(i.param));
                         });

}  // namespace
}  // namespace opc
