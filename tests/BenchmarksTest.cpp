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
/// failure placement (Table 2(a)) — and arming the bit-vector monitor alone
/// counts the same violating runs as arming both on every grid the
/// evaluation runs: Table 2(a)/(b), table5's power profiles, table6's
/// sensor scenarios, table7's oracle-scored fusion grid and the fleet
/// CLI's default grid.
///
//===----------------------------------------------------------------------===//

#include "fleet/FleetSpec.h"
#include "harness/SweepRunner.h"
#include "ir/IRPrinter.h"
#include "power/PowerProfiles.h"
#include "runtime/Simulation.h"
#include "sensors/SensorScenarios.h"

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

/// The run counts of one monitored cell that a monitor's verdict can move.
struct MonitorCounts {
  uint64_t Completed = 0;
  uint64_t Violating = 0;
  uint64_t OverEnforced = 0;  ///< Flagged, oracle clean (oracle cells only).
  uint64_t UnderEnforced = 0; ///< Oracle dirty, not flagged (oracle cells).
  bool Starved = false;
  bool Trapped = false;
  bool operator==(const MonitorCounts &) const = default;
};

/// The counts the harness reported for a cell.
MonitorCounts harnessCounts(const IntermittentMetrics &M) {
  return {M.CompletedRuns,    M.ViolatingRuns, M.OverEnforcedRuns,
          M.UnderEnforcedRuns, M.Starved,       M.Trapped};
}

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

/// measureIntermittent's run loop for \p Spec with \p A armed.
MonitorCounts intermittentCounts(const CompiledBenchmark &CB,
                                 const BenchmarkDef &B,
                                 const IntermittentSpec &Spec, Armed A) {
  RunConfig Cfg = armedConfig(B, Spec.Seed, A);
  if (Spec.Sensors)
    Cfg.Sensors = Spec.Sensors;
  Cfg.Plan = FailurePlan::energyDriven();
  Cfg.Energy = Spec.Energy;
  Cfg.Power = Spec.Power;
  Cfg.Oracle = Spec.Oracle;
  Simulation Sim(CB.Artifact, std::move(Cfg));
  MonitorCounts C;
  while (Sim.tau() < Spec.TauBudget) {
    RunResult R = Sim.runOnce();
    if (R.Starved) {
      C.Starved = true;
      break;
    }
    if (!R.Completed) {
      C.Trapped = true;
      break;
    }
    ++C.Completed;
    bool Flagged = R.ViolatedFresh || R.ViolatedConsistent;
    bool Dirty = R.OracleStale + R.OracleCrossEpoch > 0;
    C.Violating += Flagged;
    if (Spec.Oracle) {
      C.OverEnforced += Flagged && !Dirty;
      C.UnderEnforced += Dirty && !Flagged;
    }
  }
  return C;
}

TEST_P(BenchmarkSuite, OneMonitorCountsMatchBothOnTable2Grids) {
  // The harness arms the bit-vector monitor alone and counts a run as
  // violating if it flags it. Every run of a cell is the same execution
  // whichever monitors are armed, so equal violating counts under the
  // bit-vector monitor alone, the formal one alone and both mean the two
  // flag the same runs.
  const IntermittentSpec Cell{
      .TauBudget = TableTwoBSmokeTau, .Seed = 99, .Monitors = true};
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

    Both = intermittentCounts(CB, def(), Cell, Armed::Both);
    EXPECT_GT(Both.Completed, 0u) << What;
    EXPECT_FALSE(Both.Trapped) << What;
    EXPECT_FALSE(Both.Starved) << What;
    EXPECT_EQ(intermittentCounts(CB, def(), Cell, Armed::BitVector), Both)
        << What;
    EXPECT_EQ(intermittentCounts(CB, def(), Cell, Armed::Formal), Both)
        << What;
    EXPECT_EQ(harnessCounts(measureIntermittent(CB, def(), Cell)), Both)
        << What;
  }
}

/// table5/table6/table7's simulated-time budget under OCELOT_BENCH_SMOKE.
constexpr uint64_t SweepTableSmokeTau = 2'500'000;

/// A monitored grid over the six paper benchmarks × {Ocelot, JIT}, one
/// default energy config, as table5, table6 and the fleet CLI build it.
SweepSpec paperGrid(uint64_t Seed) {
  SweepSpec Spec;
  Spec.Models = {ExecModel::Ocelot, ExecModel::JitOnly};
  for (const BenchmarkDef &B : allBenchmarks())
    Spec.Benchmarks.push_back(&B);
  Spec.Energies = {EnergyConfig{}};
  Spec.Seeds = {Seed};
  Spec.TauBudget = SweepTableSmokeTau;
  Spec.Monitors = true;
  return Spec;
}

/// Evaluates \p Spec through SweepRunner, then replays every cell with the
/// bit-vector monitor alone and with both armed. Per cell the two replicas
/// must count the same runs (a run the bit vector flags is one the OR of
/// both flags, so equal counts mean equal runs), and the both-armed
/// replica must be the harness's own result. Returns the grid's violating
/// runs, so a caller can check the grid exercises a verdict at all.
uint64_t expectOneMonitorMatchesBoth(const SweepSpec &Spec) {
  std::vector<SweepCellResult> Cells = SweepRunner(1).run(Spec);
  EXPECT_EQ(Cells.size(), Spec.cellCount());
  uint64_t Violating = 0;
  for (size_t I = 0; I < Cells.size(); ++I) {
    SweepSpec::CellCoords C = Spec.cellAt(I);
    const BenchmarkDef &B = *Spec.Benchmarks[C.Bench];
    CompiledBenchmark CB = compileBenchmark(B, Spec.Models[C.Model]);
    IntermittentSpec Cell{
        .Energy = Spec.Energies[C.Energy],
        .TauBudget = Spec.TauBudget,
        .Seed = Spec.Seeds[C.Seed],
        .Monitors = true,
        .Power = Spec.Powers.empty() ? nullptr : Spec.Powers[C.Power],
        .Sensors =
            Spec.Scenarios.empty() ? nullptr : Spec.Scenarios[C.Scenario],
        .Oracle = Spec.Oracle};
    std::string What = B.Name + "/" + execModelName(Spec.Models[C.Model]) +
                       " cell " + std::to_string(I);
    MonitorCounts Both = intermittentCounts(CB, B, Cell, Armed::Both);
    EXPECT_EQ(intermittentCounts(CB, B, Cell, Armed::BitVector), Both)
        << What;
    EXPECT_EQ(harnessCounts(Cells[I].Metrics), Both) << What;
    Violating += Both.Violating;
  }
  return Violating;
}

TEST(OneMonitorGrids, Table5PowerProfiles) {
  SweepSpec Spec = paperGrid(131);
  for (const std::string &Name : PowerProfileRegistry::global().names()) {
    std::string Error;
    Spec.Powers.push_back(resolvePowerSource(Name, Error));
    ASSERT_TRUE(Spec.Powers.back()) << Error;
  }
  EXPECT_GT(expectOneMonitorMatchesBoth(Spec), 0u);
}

TEST(OneMonitorGrids, Table6SensorScenarios) {
  SweepSpec Spec = paperGrid(137);
  for (const std::string &Name : SensorScenarioRegistry::global().names()) {
    std::string Error;
    Spec.Scenarios.push_back(resolveSensorScenario(Name, Error));
    ASSERT_TRUE(Spec.Scenarios.back()) << Error;
  }
  EXPECT_GT(expectOneMonitorMatchesBoth(Spec), 0u);
}

TEST(OneMonitorGrids, Table7FusionWithOracle) {
  // The oracle's over/under-enforcement split moves with the monitors'
  // verdict per run, so it is compared too (MonitorCounts carries it).
  SweepSpec Spec;
  Spec.Models = {ExecModel::Ocelot, ExecModel::JitOnly,
                 ExecModel::AtomicsOnly};
  for (const char *Name : {"ekf_fusion", "alarm_voting"})
    Spec.Benchmarks.push_back(findBenchmark(Name));
  for (const char *Name :
       {"fusion-calm", "fusion-lagged", "fusion-storm", "fusion-volatile"}) {
    std::string Error;
    Spec.Scenarios.push_back(resolveSensorScenario(Name, Error));
    ASSERT_TRUE(Spec.Scenarios.back()) << Error;
  }
  Spec.Energies = {EnergyConfig{}};
  Spec.Seeds = {137};
  Spec.TauBudget = SweepTableSmokeTau;
  Spec.Monitors = true;
  Spec.Oracle = true;
  EXPECT_GT(expectOneMonitorMatchesBoth(Spec), 0u);
}

TEST(OneMonitorGrids, FleetDefaultGrid) {
  // `ocelot-fleet run`'s grid with every dimension left at its default,
  // over a few seeds.
  FleetSpec Fleet;
  Fleet.Models = {"ocelot", "jit"};
  for (const BenchmarkDef &B : allBenchmarks())
    Fleet.Benchmarks.push_back(B.Name);
  Fleet.Energies = {EnergyConfig{}};
  Fleet.Powers = {"default"};
  Fleet.Scenarios = {"default"};
  Fleet.Seeds = {7, 99, 131};
  Fleet.TauBudget = SweepTableSmokeTau;
  SweepSpec Spec;
  std::string Error;
  ASSERT_TRUE(Fleet.resolve(Spec, Error)) << Error;
  EXPECT_GT(expectOneMonitorMatchesBoth(Spec), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, BenchmarkSuite,
    ::testing::Values("activity", "cem", "greenhouse", "photo", "send_photo",
                      "tire"),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

} // namespace
