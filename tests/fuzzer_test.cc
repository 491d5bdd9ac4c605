// Schedule fuzzer tests: serialization round-trips, clean schedules pass
// every oracle, adversarial schedules replay byte-identically, and a
// deliberately seeded bug is caught and shrunk to a minimal replayable
// schedule.
#include <gtest/gtest.h>

#include "testing/fault_plan.h"
#include "testing/fuzzer.h"

namespace netlock {
namespace {

using testing::FaultAction;
using testing::FaultKind;
using testing::FaultPlan;
using testing::FuzzOptions;
using testing::RunReport;
using testing::Schedule;
using testing::ScheduleFuzzer;

TEST(FaultPlanTest, SerializeParseRoundTrip) {
  FaultPlan plan;
  plan.actions = {
      {FaultKind::kLoss, 1000, 500, 0, 80},
      {FaultKind::kClientPartition, 2000, 3000, 1, 0},
      {FaultKind::kFailPrimary, 4000, 0, 0, 0},
      {FaultKind::kRecoverPrimary, 9000, 0, 0, 0},
      {FaultKind::kServerFail, 12000, 0, 1, 0},
  };
  FaultPlan parsed;
  ASSERT_TRUE(FaultPlan::Parse(plan.Serialize(), &parsed));
  EXPECT_EQ(parsed, plan);
  // Migration actions (appended kinds) round-trip too.
  FaultPlan migration;
  migration.actions = {
      {FaultKind::kReallocate, 5000, 0, 1, 0},
      {FaultKind::kRehome, 7000, 0, 3, 1},
  };
  ASSERT_TRUE(FaultPlan::Parse(migration.Serialize(), &parsed));
  EXPECT_EQ(parsed, migration);
  // Empty plans round-trip too.
  ASSERT_TRUE(FaultPlan::Parse("", &parsed));
  EXPECT_TRUE(parsed.actions.empty());
  // Garbage is rejected.
  EXPECT_FALSE(FaultPlan::Parse("nonsense:1:2", &parsed));
}

TEST(FaultPlanTest, Classification) {
  FaultPlan clean;
  EXPECT_TRUE(clean.Benign());
  EXPECT_FALSE(clean.PerturbsDelivery());
  EXPECT_FALSE(clean.NeedsBackup());

  FaultPlan failover;
  failover.actions = {{FaultKind::kFailPrimary, 1000, 0, 0, 0}};
  EXPECT_TRUE(failover.NeedsBackup());
  EXPECT_FALSE(failover.PerturbsDelivery());
  EXPECT_FALSE(failover.Benign());

  FaultPlan lossy;
  lossy.actions = {{FaultKind::kLoss, 0, 0, 0, 100}};
  EXPECT_TRUE(lossy.PerturbsDelivery());
  EXPECT_FALSE(lossy.Benign());

  // Migration drains shift grants server-side, so switch-side FIFO
  // checking is off even though packets are never dropped or reordered.
  FaultPlan migration;
  migration.actions = {{FaultKind::kRehome, 1000, 0, 2, 1}};
  EXPECT_FALSE(migration.Benign());
  EXPECT_FALSE(migration.PerturbsDelivery());
  EXPECT_FALSE(migration.NeedsBackup());
}

TEST(ScheduleFuzzerTest, GeneratedSchedulesRoundTripAndAreDistinct) {
  ScheduleFuzzer fuzzer(1);
  int with_faults = 0;
  for (std::uint64_t i = 0; i < 32; ++i) {
    const Schedule sched = fuzzer.Generate(i);
    Schedule parsed;
    ASSERT_TRUE(Schedule::Parse(sched.Serialize(), &parsed)) << i;
    EXPECT_EQ(parsed, sched) << "round-trip mismatch at index " << i;
    // Generation is a pure function of (master seed, index).
    EXPECT_EQ(fuzzer.Generate(i), sched);
    if (!sched.plan.actions.empty()) ++with_faults;
  }
  EXPECT_GT(with_faults, 8);  // The flavor mix produces real fault plans.
  // Different indices give different schedules.
  EXPECT_NE(fuzzer.Generate(0), fuzzer.Generate(1));
}

TEST(ScheduleFuzzerTest, CleanScheduleSatisfiesAllOracles) {
  Schedule sched;
  sched.seed = 11;
  sched.workload.machines = 2;
  sched.workload.sessions_per_machine = 2;
  sched.workload.num_locks = 3;
  sched.workload.queue_capacity = 8;  // Forces the overflow path.
  sched.workload.run_time = 20 * kMillisecond;
  const RunReport report = ScheduleFuzzer::RunSchedule(sched);
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_GT(report.grants, 100u);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_EQ(report.fifo_violations, 0u);
}

TEST(ScheduleFuzzerTest, AdversarialScheduleReplaysByteIdentically) {
  Schedule sched;
  sched.seed = 29;
  sched.workload.machines = 2;
  sched.workload.sessions_per_machine = 2;
  sched.workload.num_locks = 4;
  sched.workload.queue_capacity = 16;
  sched.workload.run_time = 25 * kMillisecond;
  sched.plan.actions = {
      {FaultKind::kDuplicate, kMillisecond, 0, 0, 200},
      {FaultKind::kReorder, 2 * kMillisecond, 0, 0, 300},
      {FaultKind::kLoss, 3 * kMillisecond, 10 * kMillisecond, 0, 80},
      {FaultKind::kClientPartition, 8 * kMillisecond, 4 * kMillisecond, 0,
       0},
  };
  const RunReport first = ScheduleFuzzer::RunSchedule(sched);
  const RunReport second = ScheduleFuzzer::RunSchedule(sched);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.grants, second.grants);
  EXPECT_EQ(first.violations, second.violations);
  EXPECT_EQ(first.problems, second.problems);
  EXPECT_EQ(first.Summary(), second.Summary());
  // Safety and liveness hold under duplication+reorder+loss+partition.
  EXPECT_TRUE(first.ok) << first.Summary();
  // A different seed takes a different trajectory.
  Schedule other = sched;
  other.seed = 31;
  EXPECT_NE(ScheduleFuzzer::RunSchedule(other).digest, first.digest);
}

TEST(ScheduleFuzzerTest, FailoverScheduleStaysSafeAndLive) {
  Schedule sched;
  sched.seed = 47;
  sched.workload.machines = 2;
  sched.workload.sessions_per_machine = 2;
  sched.workload.num_locks = 4;
  sched.workload.queue_capacity = 64;
  sched.workload.run_time = 35 * kMillisecond;
  sched.plan.actions = {
      {FaultKind::kFailPrimary, 5 * kMillisecond, 0, 0, 0},
      {FaultKind::kRecoverPrimary, 15 * kMillisecond, 0, 0, 0},
      {FaultKind::kFailPrimary, 17 * kMillisecond, 0, 0, 0},
      {FaultKind::kRecoverPrimary, 28 * kMillisecond, 0, 0, 0},
  };
  const RunReport report = ScheduleFuzzer::RunSchedule(sched);
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_GT(report.grants, 0u);
  EXPECT_EQ(ScheduleFuzzer::RunSchedule(sched).digest, report.digest);
}

TEST(ScheduleFuzzerTest, MigrationScheduleStaysSafeAndReplays) {
  // Two racks; re-home hot locks mid-run (some while packets are being
  // duplicated), plus one mid-run reallocation. Mutual exclusion and
  // liveness must survive, and the run must replay byte-identically.
  Schedule sched;
  sched.seed = 61;
  sched.workload.machines = 2;
  sched.workload.sessions_per_machine = 2;
  sched.workload.num_locks = 6;
  sched.workload.queue_capacity = 16;
  sched.workload.racks = 2;
  sched.workload.run_time = 30 * kMillisecond;
  sched.plan.actions = {
      {FaultKind::kRehome, 4 * kMillisecond, 0, 1, 1},
      {FaultKind::kDuplicate, 6 * kMillisecond, 8 * kMillisecond, 0, 150},
      {FaultKind::kRehome, 9 * kMillisecond, 0, 3, 0},
      {FaultKind::kReallocate, 14 * kMillisecond, 0, 0, 0},
      {FaultKind::kRehome, 18 * kMillisecond, 0, 1, 0},  // Move it back.
  };
  // Round-trip including the racks field.
  Schedule parsed;
  ASSERT_TRUE(Schedule::Parse(sched.Serialize(), &parsed));
  EXPECT_EQ(parsed, sched);

  const RunReport first = ScheduleFuzzer::RunSchedule(sched);
  EXPECT_TRUE(first.ok) << first.Summary();
  EXPECT_GT(first.grants, 100u);
  EXPECT_EQ(first.violations, 0u);
  const RunReport second = ScheduleFuzzer::RunSchedule(sched);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.Summary(), second.Summary());
}

TEST(ScheduleFuzzerTest, SingleRackReallocateActionStaysSafe) {
  // kReallocate on a single-rack schedule drives the control plane's
  // remove-then-add migration sequencing under a tiny switch.
  Schedule sched;
  sched.seed = 17;
  sched.workload.machines = 2;
  sched.workload.sessions_per_machine = 2;
  sched.workload.num_locks = 4;
  sched.workload.queue_capacity = 8;
  sched.workload.run_time = 25 * kMillisecond;
  sched.plan.actions = {
      {FaultKind::kReallocate, 8 * kMillisecond, 0, 0, 0},
      {FaultKind::kReallocate, 16 * kMillisecond, 0, 0, 0},
  };
  const RunReport report = ScheduleFuzzer::RunSchedule(sched);
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_GT(report.grants, 100u);
  EXPECT_EQ(ScheduleFuzzer::RunSchedule(sched).digest, report.digest);
}

TEST(ScheduleFuzzerTest, ControllerScheduleStaysSafeUnderSwitchCrash) {
  // The self-driving controller migrates locks continuously while the
  // plan crashes and restarts the switch — the split-brain corner the
  // per-lock install commit exists for. Safety and liveness must hold,
  // and the run must replay byte-identically (the controller rides the
  // same deterministic sim clock as everything else).
  Schedule sched;
  sched.seed = 29;
  sched.workload.machines = 2;
  sched.workload.sessions_per_machine = 2;
  sched.workload.num_locks = 8;
  sched.workload.queue_capacity = 8;
  sched.workload.controller = 1;
  sched.workload.run_time = 35 * kMillisecond;
  sched.plan.actions = {
      {FaultKind::kSwitchCrash, 9 * kMillisecond, 0, 0, 0},
      {FaultKind::kSwitchRestart, 14 * kMillisecond, 0, 0, 0},
  };
  // Round-trip including the new ctrl key.
  Schedule parsed;
  ASSERT_TRUE(Schedule::Parse(sched.Serialize(), &parsed));
  EXPECT_EQ(parsed, sched);

  const RunReport first = ScheduleFuzzer::RunSchedule(sched);
  EXPECT_TRUE(first.ok) << first.Summary();
  EXPECT_GT(first.grants, 100u);
  EXPECT_EQ(first.violations, 0u);
  const RunReport second = ScheduleFuzzer::RunSchedule(sched);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.Summary(), second.Summary());
}

TEST(ScheduleFuzzerTest, SeededBugIsCaughtAndShrunkToMinimalSchedule) {
  // The test-only hook hides every release with txn % 7 == 3 from the
  // oracle, so the next grant on the same lock is a genuine overlap as far
  // as the checker can tell. The fuzzer must (a) flag it and (b) shrink
  // the schedule while preserving the failure.
  ScheduleFuzzer fuzzer(3);
  FuzzOptions options;
  options.bug_txn_mod = 7;

  // Find a failing generated schedule (the bug fires almost immediately on
  // any schedule with lock reuse, so the first few indices suffice).
  Schedule failing;
  bool found = false;
  for (std::uint64_t i = 0; i < 8 && !found; ++i) {
    failing = fuzzer.Generate(i);
    const RunReport report = ScheduleFuzzer::RunSchedule(failing, options);
    found = !report.ok && report.violations > 0;
  }
  ASSERT_TRUE(found) << "seeded bug never fired";

  const Schedule shrunk =
      ScheduleFuzzer::Shrink(failing, options, /*max_runs=*/48);
  const RunReport report = ScheduleFuzzer::RunSchedule(shrunk, options);
  EXPECT_FALSE(report.ok);
  EXPECT_GT(report.violations, 0u);
  // The shrinker strips the fault plan (the bug needs no faults) and
  // reduces the workload.
  EXPECT_TRUE(shrunk.plan.actions.empty())
      << "plan not minimal: " << shrunk.plan.Serialize();
  EXPECT_EQ(shrunk.workload.machines, 1);
  EXPECT_EQ(shrunk.workload.sessions_per_machine, 1);
  EXPECT_EQ(shrunk.workload.num_locks, 1);

  // The replay line round-trips to the exact same schedule.
  const std::string line = ScheduleFuzzer::ReplayLine(shrunk);
  EXPECT_NE(line.find("--seed="), std::string::npos);
  EXPECT_NE(line.find("--plan="), std::string::npos);
  Schedule replayed;
  ASSERT_TRUE(Schedule::Parse(shrunk.Serialize(), &replayed));
  EXPECT_EQ(replayed, shrunk);
  EXPECT_EQ(ScheduleFuzzer::RunSchedule(replayed, options).digest,
            report.digest);
  // Without the seeded bug the shrunk schedule is healthy: the fuzzer
  // found the planted defect, not a real one.
  EXPECT_TRUE(ScheduleFuzzer::RunSchedule(shrunk).ok);
}

TEST(ScheduleFuzzerTest, UnorderedPolicySchedulesAreCleanAndRoundTrip) {
  // The deadlock-prone flavor: unsorted lock sets over a tiny hot space,
  // resolved by each deadlock policy in turn. Safety, liveness (waits-for
  // cycle check), and FIFO must all hold, and the new unord/policy keys
  // must survive serialization.
  for (int policy = 1; policy <= 3; ++policy) {
    for (const std::uint64_t seed : {101ull, 202ull, 303ull}) {
      Schedule sched;
      sched.seed = seed;
      sched.workload.machines = 3;
      sched.workload.sessions_per_machine = 1;
      sched.workload.num_locks = 4;
      sched.workload.queue_capacity = 256;
      sched.workload.shared_permille = 300;
      sched.workload.locks_per_txn = 3;
      sched.workload.unordered = 1;
      sched.workload.policy = policy;
      sched.workload.run_time = 25 * kMillisecond;
      Schedule parsed;
      ASSERT_TRUE(Schedule::Parse(sched.Serialize(), &parsed));
      EXPECT_EQ(parsed, sched);
      const RunReport report = ScheduleFuzzer::RunSchedule(sched);
      EXPECT_TRUE(report.ok) << "policy " << policy << " seed " << seed
                             << " failed:\n"
                             << report.Summary();
      EXPECT_EQ(report.violations, 0u);
      EXPECT_EQ(report.stuck_cycles, 0u);
      EXPECT_GT(report.grants, 0u);
    }
  }
}

TEST(ScheduleFuzzerTest, SeededAlwaysWaitDeadlockIsCaughtByWaitsForOracle) {
  // bug_always_wait runs the schedule with the policy forced off and the
  // lease stretched past the horizon: three clients acquiring two of three
  // locks in shuffled order wedge almost immediately, and nothing ever
  // breaks the cycle. The waits-for oracle must report a stuck cycle —
  // proof the liveness check catches real deadlocks, not just quiet runs.
  Schedule sched;
  sched.seed = 5;
  sched.workload.machines = 3;
  sched.workload.sessions_per_machine = 1;
  sched.workload.num_locks = 3;
  sched.workload.queue_capacity = 64;
  sched.workload.shared_permille = 0;
  sched.workload.locks_per_txn = 2;
  sched.workload.unordered = 1;
  sched.workload.policy = 3;  // Applied only in the healthy control run.
  sched.workload.run_time = 20 * kMillisecond;

  FuzzOptions bug;
  bug.bug_always_wait = true;
  const RunReport buggy = ScheduleFuzzer::RunSchedule(sched, bug);
  EXPECT_FALSE(buggy.ok);
  EXPECT_GT(buggy.stuck_cycles, 0u) << buggy.Summary();

  // The identical schedule with wound-wait actually applied is healthy:
  // the planted liveness defect, not the workload, caused the failure.
  const RunReport healthy = ScheduleFuzzer::RunSchedule(sched);
  EXPECT_TRUE(healthy.ok) << healthy.Summary();
  EXPECT_EQ(healthy.stuck_cycles, 0u);
}

// Shrunk sweep finds, pinned as replays. Before their fixes the first
// four overlapped two grants of one lock and the last four tripped a
// CHECK:
//  - ServerToSwitchHandoff: an acquire the switch forwarded as
//    server-owned just before MoveLockToSwitch committed reached the old
//    server afterwards, which recreated the lock and granted it beside the
//    switch. The server now re-sends such acquires to the switch.
//  - DemoteThroughSwitchRestart*: MoveLockToServer's drain saw the empty
//    queue of the entry RecoverSwitch had just reinstalled suspended, and
//    the server granted while a pre-crash switch grant was still held. The
//    drain now waits while the entry is suspended.
//  - SubstituteDropWithAcquireInFlight: RecoverServer made the substitute
//    drop a lock it had granted; an acquire in flight to the substitute
//    recreated the lock there and was granted beside the holder. Such
//    acquires now go back through the switch to the recovered home.
//  - RehomeRacesRackMigration: the self-driving controller's allocation
//    drained a lock that a cross-rack re-home was draining too, and the
//    second handoff found the server already serving it. A re-home now
//    pins the lock on both racks (RehomeRacesRackMigration) and is not
//    started while either rack has a batch in flight
//    (RehomeDuringRackMigrationBatch).
//  - RehomeStagedThroughSwitchRestart*: a switch restart wiped a lock
//    staged (suspended) for a re-home, and the re-home's commit activated
//    a missing entry. RecoverSwitch now stages such locks again.
struct PinnedReplay {
  const char* name;
  std::uint64_t seed;
  const char* plan;
};

class PinnedReplayTest : public ::testing::TestWithParam<PinnedReplay> {};

TEST_P(PinnedReplayTest, StaysClean) {
  Schedule sched;
  sched.seed = GetParam().seed;
  ASSERT_TRUE(Schedule::Parse(GetParam().plan, &sched));
  const RunReport report = ScheduleFuzzer::RunSchedule(sched);
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_EQ(report.violations, 0u);
  EXPECT_EQ(report.stuck_cycles, 0u);
  EXPECT_GT(report.grants, 200u);
}

INSTANTIATE_TEST_SUITE_P(
    ScheduleFuzzerTest, PinnedReplayTest,
    ::testing::Values(
        PinnedReplay{"ServerToSwitchHandoff", 10240499549820507791ull,
                     "m=3;spm=3;locks=4;cap=8;shared=0;lpt=2;racks=1;"
                     "unord=0;policy=0;ctrl=1;run=10000000;plan="},
        PinnedReplay{"DemoteThroughSwitchRestartShared",
                     2948509633643695371ull,
                     "m=2;spm=2;locks=4;cap=4;shared=300;lpt=2;racks=1;"
                     "unord=0;policy=0;ctrl=1;run=10000000;"
                     "plan=downsw:9587349:0:0:0"},
        PinnedReplay{"DemoteThroughSwitchRestartExclusive",
                     13755867275257657699ull,
                     "m=3;spm=3;locks=10;cap=4;shared=0;lpt=2;racks=1;"
                     "unord=0;policy=0;ctrl=1;run=10000000;"
                     "plan=downsw:7696029:0:0:0"},
        PinnedReplay{"SubstituteDropWithAcquireInFlight",
                     605477690642308827ull,
                     "m=3;spm=2;locks=6;cap=4;shared=0;lpt=1;racks=1;"
                     "unord=0;policy=0;ctrl=0;run=10000000;"
                     "plan=failsrv:2269534:0:1:0"},
        PinnedReplay{"RehomeRacesRackMigration", 3055998305919316919ull,
                     "m=3;spm=2;locks=4;cap=16;shared=0;lpt=2;racks=2;"
                     "unord=0;policy=0;ctrl=1;run=10000000;"
                     "plan=loss:1374891:0:0:69"},
        PinnedReplay{"RehomeDuringRackMigrationBatch",
                     6782876318565840309ull,
                     "m=3;spm=3;locks=4;cap=16;shared=0;lpt=2;racks=2;"
                     "unord=0;policy=0;ctrl=1;run=10000000;"
                     "plan=jitter:22593:0:0:1475,loss:3256647:0:0:74,"
                     "reorder:9662984:11489163:0:95"},
        PinnedReplay{"RehomeStagedThroughSwitchRestartA",
                     613874754775496721ull,
                     "m=1;spm=1;locks=4;cap=16;shared=0;lpt=1;racks=2;"
                     "unord=0;policy=0;ctrl=1;run=10000000;"
                     "plan=downsw:5403468:0:0:0,upsw:11420123:0:0:0"},
        PinnedReplay{"RehomeStagedThroughSwitchRestartB",
                     13241858571921446873ull,
                     "m=2;spm=1;locks=4;cap=16;shared=0;lpt=2;racks=2;"
                     "unord=0;policy=0;ctrl=1;run=10000000;"
                     "plan=downsw:8710030:0:0:0,upsw:15967738:0:0:0"}),
    [](const ::testing::TestParamInfo<PinnedReplay>& info) {
      return std::string(info.param.name);
    });

TEST(ScheduleFuzzerTest, GeneratedSweepIsCleanOnTheSeedTree) {
  // A miniature version of the CI fuzz-smoke job: every generated
  // schedule must satisfy safety, FIFO (when applicable), and liveness.
  ScheduleFuzzer fuzzer(2026);
  for (std::uint64_t i = 0; i < 12; ++i) {
    const Schedule sched = fuzzer.Generate(i);
    const RunReport report = ScheduleFuzzer::RunSchedule(sched);
    EXPECT_TRUE(report.ok)
        << "schedule " << i << " failed:\n"
        << report.Summary() << "\nreplay: " << ScheduleFuzzer::ReplayLine(sched);
  }
}

}  // namespace
}  // namespace netlock
