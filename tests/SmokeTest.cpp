//===- SmokeTest.cpp - End-to-end pipeline smoke test --------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles and runs the paper's Fig. 2 weather program end to end: JIT
/// builds must violate freshness/consistency under pathological failures,
/// Ocelot builds must not.
///
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "ir/IRPrinter.h"
#include "ocelot/Toolchain.h"
#include "runtime/Simulation.h"

#include <gtest/gtest.h>

using namespace ocelot;

namespace {

const char *WeatherSrc = R"(
io tmp, pres, hum;

fn main() {
  let x = tmp();
  Fresh(x);
  if x > 5 {
    alarm();
  }
  let y = pres();
  Consistent(y, 1);
  let z = hum();
  Consistent(z, 1);
  log(y, z);
}
)";

CompiledArtifact compile(ExecModel Model) {
  CompileOptions Opts;
  Opts.Model = Model;
  Compilation C = Toolchain().compile(WeatherSrc, Opts);
  EXPECT_TRUE(C.ok()) << C.status().str();
  return C.artifact();
}

TEST(Smoke, CompilesAllModels) {
  for (ExecModel M : {ExecModel::JitOnly, ExecModel::AtomicsOnly,
                      ExecModel::Ocelot}) {
    CompiledArtifact A = compile(M);
    ASSERT_TRUE(static_cast<bool>(A));
    EXPECT_EQ(A.model(), M);
  }
}

TEST(Smoke, OcelotInfersRegions) {
  CompiledArtifact A = compile(ExecModel::Ocelot);
  // One region for the fresh policy, one for the consistent set (they may
  // overlap; both exist).
  EXPECT_EQ(A.inferredRegions().size(), 2u) << printProgram(A.program());
  EXPECT_EQ(A.policies().Fresh.size(), 1u);
  EXPECT_EQ(A.policies().Consistent.size(), 1u);
  EXPECT_TRUE(A.placementValid());
}

TEST(Smoke, JitViolatesUnderPathologicalFailures) {
  CompiledArtifact A = compile(ExecModel::JitOnly);
  RunConfig Cfg;
  Cfg.Sensors = SensorScenario::Builder()
                    .channel(0, noiseChannel(0, 10, 50, 11))
                    .channel(1, noiseChannel(900, 200, 50, 12))
                    .channel(2, noiseChannel(30, 60, 50, 13))
                    .build();
  Cfg.Plan = FailurePlan::pathological(pathologicalPoints(A));
  Cfg.Plan.setOffTime(10000, 50000);
  Cfg.MonitorBitVector = true;
  Cfg.MonitorFormal = true;
  Simulation Sim(A, std::move(Cfg));
  RunResult Res = Sim.runOnce();
  EXPECT_TRUE(Res.Completed) << Res.Trap;
  EXPECT_TRUE(Res.ViolatedFresh);
  EXPECT_TRUE(Res.ViolatedConsistent);
}

TEST(Smoke, OcelotNeverViolates) {
  CompiledArtifact A = compile(ExecModel::Ocelot);
  RunConfig Cfg;
  Cfg.Plan = FailurePlan::pathological(pathologicalPoints(A));
  Cfg.Plan.setOffTime(10000, 50000);
  Cfg.MonitorBitVector = true;
  Cfg.MonitorFormal = true;
  Simulation Sim(A, std::move(Cfg));
  RunResult Res = Sim.runOnce();
  EXPECT_TRUE(Res.Completed) << Res.Trap;
  EXPECT_FALSE(Res.ViolatedFresh) << printProgram(A.program());
  EXPECT_FALSE(Res.ViolatedConsistent);
  EXPECT_GE(Res.AtomicAborts, 1u) << "failures should hit inside regions";
}

TEST(Smoke, IntermittentTraceRefinesContinuous) {
  CompiledArtifact A = compile(ExecModel::Ocelot);
  RunConfig Cfg;
  // Each charge holds 300 cycles above the reserve, so the run's ~500
  // cycles reboot at least once; each recharge takes 300 / 0.03 = 10000.
  Cfg.Plan = FailurePlan::energyDriven();
  Cfg.Energy = EnergyConfig{650, 350, 0.03, 0.0, 0.0};
  Cfg.RecordTrace = true;
  Simulation Sim(A, std::move(Cfg));
  RunResult Res = Sim.runOnce();
  ASSERT_TRUE(Res.Completed) << Res.Trap;
  EXPECT_GT(Res.Reboots, 0u);
  std::string Why;
  EXPECT_TRUE(replayRefines(A.program(), &A.monitorPlan(), Res.TraceData, 1,
                            Sim.nvmSnapshot(), Why))
      << Why;
}

} // namespace
