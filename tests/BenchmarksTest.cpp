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
/// failure placement (Table 2(a)).
///
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "ir/IRPrinter.h"
#include "runtime/Simulation.h"

#include <gtest/gtest.h>

using namespace ocelot;

namespace {

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
  // The period must exceed the largest atomic region or no region can ever
  // commit (§5.3's satisfiability constraint).
  Cfg.Plan = FailurePlan::periodic(1600, 0.3);
  Cfg.Plan.setOffTime(3000, 30000);
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

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, BenchmarkSuite,
    ::testing::Values("activity", "cem", "greenhouse", "photo", "send_photo",
                      "tire"),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

} // namespace
