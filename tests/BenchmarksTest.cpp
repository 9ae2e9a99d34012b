//===- BenchmarksTest.cpp - The six evaluation benchmarks ----------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integration tests over the paper's six benchmarks (Table 1): every
/// benchmark compiles under every execution model, runs on continuous and
/// intermittent power, and reproduces the paper's correctness claims —
/// Ocelot never violates its policies, JIT always does under pathological
/// failure placement (Table 2(a)) — and arming one violation monitor
/// counts the same violating runs as arming both on the Table 2 grids.
///
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "ir/IRPrinter.h"
#include "runtime/Simulation.h"

#include <gtest/gtest.h>

using namespace ocelot;

namespace {

/// table2b_intermittent's simulated-time budget under OCELOT_BENCH_SMOKE.
constexpr uint64_t TableTwoBSmokeTau = 5'000'000;

class BenchmarkSuite : public ::testing::TestWithParam<std::string> {
protected:
  const BenchmarkDef &def() const { return *findBenchmark(GetParam()); }
};

TEST_P(BenchmarkSuite, CompilesUnderAllModels) {
  for (ExecModel M : {ExecModel::JitOnly, ExecModel::AtomicsOnly,
                      ExecModel::Ocelot, ExecModel::CheckOnly}) {
    CompiledBenchmark CB = compileBenchmark(def(), M);
    ASSERT_TRUE(static_cast<bool>(CB.Artifact));
    EXPECT_EQ(CB.Artifact.model(), M);
    EXPECT_FALSE(CB.Artifact.policies().empty())
        << def().Name << " must carry timing policies";
  }
}

TEST_P(BenchmarkSuite, OcelotInfersAtLeastOneRegion) {
  CompiledBenchmark CB = compileBenchmark(def(), ExecModel::Ocelot);
  EXPECT_FALSE(CB.Artifact.inferredRegions().empty())
      << printProgram(CB.Artifact.program());
  EXPECT_TRUE(CB.Artifact.placementValid());
}

TEST_P(BenchmarkSuite, RunsContinuously) {
  for (ExecModel M :
       {ExecModel::JitOnly, ExecModel::AtomicsOnly, ExecModel::Ocelot}) {
    CompiledBenchmark CB = compileBenchmark(def(), M);
    ContinuousMetrics C = measureContinuous(CB, def(), 20, 42);
    EXPECT_EQ(C.Runs, 20u);
    EXPECT_GT(C.CyclesPerRun, 0.0);
  }
}

TEST_P(BenchmarkSuite, Table2aOcelotNeverViolates) {
  CompiledBenchmark CB = compileBenchmark(def(), ExecModel::Ocelot);
  EXPECT_EQ(pathologicalViolationPct(CB, def(), 50, 7), 0.0);
}

TEST_P(BenchmarkSuite, Table2aJitAlwaysViolates) {
  CompiledBenchmark CB = compileBenchmark(def(), ExecModel::JitOnly);
  EXPECT_EQ(pathologicalViolationPct(CB, def(), 50, 7), 100.0);
}

TEST_P(BenchmarkSuite, Table2aAtomicsManualPlacementHolds) {
  // The manually regioned variants were placed to satisfy the policies, so
  // they must behave like Ocelot builds under pathological failures.
  CompiledBenchmark CB = compileBenchmark(def(), ExecModel::AtomicsOnly);
  EXPECT_EQ(pathologicalViolationPct(CB, def(), 50, 7), 0.0);
}

TEST_P(BenchmarkSuite, CheckerAcceptsManualPlacement) {
  CompiledBenchmark CB = compileBenchmark(def(), ExecModel::CheckOnly);
  EXPECT_TRUE(CB.Artifact.placementValid())
      << def().Name << ": manual regions should enforce the annotations";
}

TEST_P(BenchmarkSuite, IntermittentOcelotCleanAndCharging) {
  CompiledBenchmark CB = compileBenchmark(def(), ExecModel::Ocelot);
  IntermittentMetrics M = measureIntermittent(
      CB, def(), {.TauBudget = 40'000'000, .Seed = 11, .Monitors = true});
  EXPECT_FALSE(M.Starved);
  EXPECT_GT(M.CompletedRuns, 0u);
  EXPECT_EQ(M.ViolatingRuns, 0u);
  // Charging dominates the wall clock (Fig. 8's observation).
  EXPECT_GT(M.OffCyclesPerRun, M.OnCyclesPerRun);
}

TEST_P(BenchmarkSuite, IntermittentTraceRefinesContinuous) {
  CompiledBenchmark CB = compileBenchmark(def(), ExecModel::Ocelot);
  RunConfig Cfg;
  Cfg.Sensors = def().scenario(23);
  // Every charge holds exactly 1600 cycles above the reserve: more than the
  // largest atomic region, or no region could ever commit (§5.3's
  // satisfiability constraint). Each recharge takes 1600 / 0.1 = 16000.
  Cfg.Plan = FailurePlan::energyDriven();
  Cfg.Energy = EnergyConfig{1950, 350, 0.1, 0.0, 0.0};
  Cfg.RecordTrace = true;
  Simulation Sim(CB.Artifact, std::move(Cfg));
  constexpr int Runs = 4;
  Trace Combined;
  for (int Run = 0; Run < Runs; ++Run) {
    RunResult Res = Sim.runOnce();
    ASSERT_TRUE(Res.Completed) << Res.Trap;
    Combined.Inputs.insert(Combined.Inputs.end(),
                           Res.TraceData.Inputs.begin(),
                           Res.TraceData.Inputs.end());
    Combined.Outputs.insert(Combined.Outputs.end(),
                            Res.TraceData.Outputs.begin(),
                            Res.TraceData.Outputs.end());
    Combined.Reboots += Res.TraceData.Reboots;
  }
  std::string Why;
  EXPECT_TRUE(replayRefines(CB.Artifact.program(), &CB.Artifact.monitorPlan(),
                            Combined, Runs, Sim.nvmSnapshot(), Why))
      << Why;
}

// -- One armed monitor against both --------------------------------------

/// Which violation monitors a run arms.
enum class Armed { BitVector, Formal, Both };

/// Completed and violating runs of one monitored cell.
struct MonitorCounts {
  uint64_t Completed = 0;
  uint64_t Violating = 0;
  bool operator==(const MonitorCounts &) const = default;
};

/// The harness's RunConfig for a cell of \p B at \p Seed, with \p A armed.
RunConfig armedConfig(const BenchmarkDef &B, uint64_t Seed, Armed A) {
  RunConfig Cfg;
  Cfg.Sensors = B.scenario(Seed);
  Cfg.Seed = Seed;
  Cfg.MonitorBitVector = A != Armed::Formal;
  Cfg.MonitorFormal = A != Armed::BitVector;
  return Cfg;
}

/// Table 2(a)'s cell: pathologicalViolationPct's run loop with \p A armed.
MonitorCounts pathologicalCounts(const CompiledBenchmark &CB,
                                 const BenchmarkDef &B, Armed A) {
  RunConfig Cfg = armedConfig(B, 7, A);
  Cfg.Plan = FailurePlan::pathological(pathologicalPoints(CB.Artifact));
  Cfg.Plan.setOffTime(20000, 200000);
  Simulation Sim(CB.Artifact, std::move(Cfg));
  MonitorCounts C;
  for (int Run = 0; Run < 10; ++Run) {
    RunResult R = Sim.runOnce();
    EXPECT_TRUE(R.Completed) << R.Trap;
    C.Completed += R.Completed;
    C.Violating += R.Completed && (R.ViolatedFresh || R.ViolatedConsistent);
  }
  return C;
}

/// Table 2(b)'s cell at its smoke budget: measureIntermittent's run loop
/// with \p A armed.
MonitorCounts intermittentCounts(const CompiledBenchmark &CB,
                                 const BenchmarkDef &B, Armed A) {
  RunConfig Cfg = armedConfig(B, 99, A);
  Cfg.Plan = FailurePlan::energyDriven();
  Simulation Sim(CB.Artifact, std::move(Cfg));
  MonitorCounts C;
  while (Sim.tau() < TableTwoBSmokeTau) {
    RunResult R = Sim.runOnce();
    EXPECT_TRUE(R.Completed) << R.Trap;
    if (!R.Completed)
      break;
    ++C.Completed;
    C.Violating += R.ViolatedFresh || R.ViolatedConsistent;
  }
  return C;
}

TEST_P(BenchmarkSuite, OneMonitorCountsMatchBothOnTable2Grids) {
  // The harness arms both monitors and counts a run as violating if either
  // flags it. Every run of a cell is the same execution whichever monitors
  // are armed, so equal violating counts under the bit-vector monitor
  // alone, the formal one alone and both mean the two flag the same runs.
  for (ExecModel M :
       {ExecModel::Ocelot, ExecModel::JitOnly, ExecModel::AtomicsOnly}) {
    CompiledBenchmark CB = compileBenchmark(def(), M);
    std::string What = def().Name + "/" + execModelName(M);

    MonitorCounts Both = pathologicalCounts(CB, def(), Armed::Both);
    EXPECT_EQ(pathologicalCounts(CB, def(), Armed::BitVector), Both) << What;
    EXPECT_EQ(pathologicalCounts(CB, def(), Armed::Formal), Both) << What;
    // The replica is the harness's cell.
    EXPECT_EQ(pathologicalViolationPct(CB, def(), 10, 7),
              100.0 * static_cast<double>(Both.Violating) /
                  static_cast<double>(Both.Completed))
        << What;

    Both = intermittentCounts(CB, def(), Armed::Both);
    EXPECT_GT(Both.Completed, 0u) << What;
    EXPECT_EQ(intermittentCounts(CB, def(), Armed::BitVector), Both) << What;
    EXPECT_EQ(intermittentCounts(CB, def(), Armed::Formal), Both) << What;
    IntermittentMetrics Harness = measureIntermittent(
        CB, def(),
        {.TauBudget = TableTwoBSmokeTau, .Seed = 99, .Monitors = true});
    EXPECT_EQ(Harness.CompletedRuns, Both.Completed) << What;
    EXPECT_EQ(Harness.ViolatingRuns, Both.Violating) << What;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, BenchmarkSuite,
    ::testing::Values("activity", "cem", "greenhouse", "photo", "send_photo",
                      "tire"),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

} // namespace
