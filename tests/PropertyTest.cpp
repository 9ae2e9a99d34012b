//===- PropertyTest.cpp - Property sweeps over benchmarks and seeds ------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameterized property sweeps (Theorem 1 at run time):
///
///  * Ocelot builds never violate freshness or temporal consistency under
///    any failure plan or seed — detected both by the paper's bit vector
///    and by the formal checker over taint-augmented traces;
///  * under pathological placement, JIT builds violate in every run and
///    both detectors agree;
///  * committed intermittent traces refine a continuous execution
///    (outputs and final non-volatile memory match a replay);
///  * every inferred region is necessary: deleting any one breaks the
///    placement check.
///
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "ocelot/RegionChecker.h"
#include "runtime/Simulation.h"

#include <gtest/gtest.h>

using namespace ocelot;

namespace {

using Param = std::tuple<std::string, uint64_t>; // benchmark, seed

class PropertySweep : public ::testing::TestWithParam<Param> {
protected:
  const BenchmarkDef &def() const {
    return *findBenchmark(std::get<0>(GetParam()));
  }
  uint64_t seed() const { return std::get<1>(GetParam()); }
};

/// The region-necessity tests delete region bounds from the compiled IR,
/// which needs a privately owned *mutable* Program — something the public
/// immutable-artifact API deliberately does not hand out. White-box: go
/// through the internal pipeline.
CompileResult compileMutableOcelot(const BenchmarkDef &B) {
  DiagnosticEngine Diags;
  CompileOptions Opts;
  Opts.Model = ExecModel::Ocelot;
  CompileResult R = detail::runCompilePipeline(B.AnnotatedSrc, Opts, Diags);
  EXPECT_TRUE(R.Ok) << Diags.str();
  return R;
}

/// One failure distribution: a plan, plus the capacitor an energy-driven
/// plan draws from.
struct PlanCase {
  FailurePlan Plan;
  EnergyConfig Energy{};
};

/// Four distinct failure distributions: targeted (pathological), memoryless
/// (random), phase-locked (energy-driven without jitter: every charge
/// holds exactly 2500 cycles above the reserve) and jittered energy-driven.
std::vector<PlanCase> plansFor(const CompiledArtifact &A) {
  std::vector<PlanCase> Plans;
  Plans.push_back({FailurePlan::pathological(pathologicalPoints(A))});
  Plans.push_back({FailurePlan::random(0.002)});
  Plans.push_back({FailurePlan::energyDriven(),
                   EnergyConfig{2850, 350, 0.1, 0.0, 0.0}});
  Plans.push_back({FailurePlan::energyDriven()});
  for (PlanCase &C : Plans)
    C.Plan.setOffTime(5000, 120000);
  return Plans;
}

TEST_P(PropertySweep, OcelotNeverViolatesUnderAnyPlan) {
  CompiledBenchmark CB = compileBenchmark(def(), ExecModel::Ocelot);
  for (const PlanCase &Case : plansFor(CB.Artifact)) {
    RunConfig Cfg;
    Cfg.Sensors = def().scenario(seed());
    Cfg.Seed = seed();
    Cfg.Plan = Case.Plan;
    Cfg.Energy = Case.Energy;
    Cfg.MonitorBitVector = true;
    Cfg.MonitorFormal = true;
    Simulation Sim(CB.Artifact, std::move(Cfg));
    for (int Run = 0; Run < 15; ++Run) {
      RunResult Res = Sim.runOnce();
      ASSERT_TRUE(Res.Completed) << def().Name << ": " << Res.Trap;
      EXPECT_FALSE(Res.ViolatedFresh)
          << def().Name << " seed " << seed() << " run " << Run;
      EXPECT_FALSE(Res.ViolatedConsistent)
          << def().Name << " seed " << seed() << " run " << Run;
    }
  }
}

TEST_P(PropertySweep, JitPathologicalDetectorsAgree) {
  CompiledBenchmark CB = compileBenchmark(def(), ExecModel::JitOnly);
  RunConfig Cfg;
  Cfg.Sensors = def().scenario(seed());
  Cfg.Seed = seed();
  Cfg.Plan = FailurePlan::pathological(pathologicalPoints(CB.Artifact));
  Cfg.Plan.setOffTime(20000, 200000);
  Cfg.MonitorBitVector = true;
  Cfg.MonitorFormal = true;
  Simulation Sim(CB.Artifact, std::move(Cfg));
  for (int Run = 0; Run < 15; ++Run) {
    RunResult Res = Sim.runOnce();
    ASSERT_TRUE(Res.Completed) << Res.Trap;
    EXPECT_TRUE(Res.ViolatedFresh || Res.ViolatedConsistent)
        << def().Name << " must violate in every pathological run";
    // Both detectors must report: the bit vector (§7.3) and the formal
    // checker (Definitions 2/3) observe the same split executions.
    bool BitVec = false, Formal = false;
    for (const ViolationRecord &V : Res.Violations) {
      if (V.K == ViolationRecord::Kind::FreshBitVec ||
          V.K == ViolationRecord::Kind::ConsistentBitVec)
        BitVec = true;
      else
        Formal = true;
    }
    EXPECT_TRUE(BitVec) << def().Name;
    EXPECT_TRUE(Formal) << def().Name;
  }
}

TEST_P(PropertySweep, CommittedTracesRefineContinuous) {
  CompiledBenchmark CB = compileBenchmark(def(), ExecModel::Ocelot);
  RunConfig Cfg;
  Cfg.Sensors = def().scenario(seed());
  Cfg.Seed = seed();
  Cfg.Plan = FailurePlan::energyDriven();
  Cfg.RecordTrace = true;
  Simulation Sim(CB.Artifact, std::move(Cfg));
  constexpr int Runs = 6;
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
  }
  std::string Why;
  EXPECT_TRUE(replayRefines(CB.Artifact.program(), &CB.Artifact.monitorPlan(),
                            Combined, Runs, Sim.nvmSnapshot(), Why))
      << def().Name << " seed " << seed() << ": " << Why;
}

TEST_P(PropertySweep, RegionsAreCollectivelyNecessary) {
  // Deleting every inferred region must break the placement check: the
  // annotations are not vacuous. (Deleting a single region may be masked
  // by an overlapping or enclosing region — e.g. activity's fresh region
  // in main legitimately covers the consistent set sampled in its callee.)
  CompileResult CR = compileMutableOcelot(def());
  ASSERT_FALSE(CR.InferredRegions.empty());
  for (int F = 0; F < CR.Prog->numFunctions(); ++F) {
    Function *Fn = CR.Prog->function(F);
    for (int B = 0; B < Fn->numBlocks(); ++B)
      std::erase_if(Fn->block(B)->instructions(),
                    [](const Instruction &I) { return I.isRegionBound(); });
  }
  CallGraph CG(*CR.Prog);
  TaintAnalysis TA(*CR.Prog, CG);
  DiagnosticEngine Diags;
  EXPECT_FALSE(checkRegionPlacement(*CR.Prog, TA, CR.Policies, Diags));
}

TEST_P(PropertySweep, SoleRegionIsIndividuallyNecessary) {
  // When inference produced exactly one region, deleting it must break the
  // check (no masking possible).
  CompileResult CR = compileMutableOcelot(def());
  if (CR.InferredRegions.size() != 1)
    GTEST_SKIP() << "benchmark has overlapping regions";
  int RegionId = CR.InferredRegions[0].RegionId;
  for (int F = 0; F < CR.Prog->numFunctions(); ++F) {
    Function *Fn = CR.Prog->function(F);
    for (int B = 0; B < Fn->numBlocks(); ++B)
      std::erase_if(Fn->block(B)->instructions(),
                    [&](const Instruction &I) {
                      return I.isRegionBound() && I.RegionId == RegionId;
                    });
  }
  CallGraph CG(*CR.Prog);
  TaintAnalysis TA(*CR.Prog, CG);
  DiagnosticEngine Diags;
  EXPECT_FALSE(checkRegionPlacement(*CR.Prog, TA, CR.Policies, Diags));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PropertySweep,
    ::testing::Combine(::testing::Values("activity", "cem", "greenhouse",
                                         "photo", "send_photo", "tire"),
                       ::testing::Values(1u, 17u, 4242u)),
    [](const ::testing::TestParamInfo<Param> &Info) {
      return std::get<0>(Info.param) + "_seed" +
             std::to_string(std::get<1>(Info.param));
    });

} // namespace
