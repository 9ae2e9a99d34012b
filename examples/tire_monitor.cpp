//===- tire_monitor.cpp - The paper's tire application (Fig. 9) --------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the paper's own tire-safety benchmark (§8, Fig. 9): the burst-tire
/// decision requires both freshness and temporal consistency across three
/// sensors. This example compiles all three builds, prints the inferred
/// regions with their undo-log omega sets, and compares a long intermittent
/// campaign's warning counts (a JIT build raises urgent warnings from data
/// that straddles power failures).
///
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "ir/IRPrinter.h"
#include "runtime/Simulation.h"

#include <cstdio>

using namespace ocelot;

int main() {
  const BenchmarkDef &Tire = *findBenchmark("tire");

  CompiledBenchmark Oce = compileBenchmark(Tire, ExecModel::Ocelot);
  const CompiledArtifact &OceA = Oce.Artifact;
  std::printf("== Tire monitor: inferred regions ==\n\n");
  for (const InferredRegion &R : OceA.inferredRegions()) {
    const RegionInfo *Info = nullptr;
    for (const RegionInfo &Candidate : OceA.regions())
      if (Candidate.RegionId == R.RegionId)
        Info = &Candidate;
    std::printf("  region r%d in %s: omega = {", R.RegionId,
                OceA.program().function(R.Func)->name().c_str());
    if (Info) {
      bool First = true;
      for (int G : Info->Omega) {
        std::printf("%s%s", First ? "" : ", ",
                    OceA.program().global(G).Name.c_str());
        First = false;
      }
    }
    std::printf("} (WAR ∪ EMW cells to restore on rollback)\n");
  }

  std::printf("\n== 100 simulated seconds of harvested operation ==\n\n");
  for (ExecModel Model : {ExecModel::JitOnly, ExecModel::Ocelot}) {
    CompiledBenchmark CB = compileBenchmark(Tire, Model);
    RunConfig Cfg;
    Cfg.Sensors = Tire.scenario(2026);
    Cfg.Plan = FailurePlan::energyDriven();
    Cfg.MonitorBitVector = true;
    Cfg.MonitorFormal = true;
    Simulation Sim(CB.Artifact, std::move(Cfg));
    uint64_t Runs = 0, Violating = 0, Reboots = 0;
    while (Sim.tau() < 80'000'000) {
      RunResult Res = Sim.runOnce();
      if (!Res.Completed) {
        std::fprintf(stderr, "run failed: %s\n", Res.Trap.c_str());
        return 1;
      }
      ++Runs;
      Reboots += Res.Reboots;
      if (Res.ViolatedFresh || Res.ViolatedConsistent)
        ++Violating;
    }
    // Warning counters live in NVM.
    int UrgentIdx = CB.Artifact.program().findGlobal("urgent_warnings");
    int WarnIdx = CB.Artifact.program().findGlobal("warnings");
    auto Snap = Sim.nvmSnapshot();
    std::printf("%-8s completed runs: %5llu  reboots: %5llu  runs with "
                "timing violations: %llu\n         urgent warnings: %lld, "
                "regular warnings: %lld\n",
                execModelName(Model), static_cast<unsigned long long>(Runs),
                static_cast<unsigned long long>(Reboots),
                static_cast<unsigned long long>(Violating),
                static_cast<long long>(Snap[static_cast<size_t>(UrgentIdx)][0]),
                static_cast<long long>(Snap[static_cast<size_t>(WarnIdx)][0]));
  }
  std::printf("\nThe JIT build's warnings can mix a pre-failure pressure "
              "delta with a post-failure\nmotion estimate; Ocelot's regions "
              "guarantee every decision matches a continuous run.\n");
  return 0;
}
