//===- fig8_intermittent_runtime.cpp - Paper Figure 8 ----------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Figure 8: intermittent-power runtimes normalized to the
/// continuous JIT execution. The top view stacks on-time with off/charging
/// time (charging dominates, as on the paper's RF-harvesting testbed); the
/// zoomed view shows on-time only, which tracks the Figure 7 proportions.
///
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "harness/TableFmt.h"

#include <cstdio>

using namespace ocelot;

int main() {
  std::printf("== Figure 8: Intermittent runtime, normalized to continuous "
              "JIT ==\n\n");
  constexpr uint64_t Seed = 77;
  const uint64_t TauBudget = benchSmokeMode() ? 4'000'000 : 60'000'000;
  EnergyConfig Energy; // Capybara-like defaults.

  Table Full({"benchmark", "model", "on/run", "off(charging)/run",
              "total norm", "on-time norm"});
  std::vector<double> TotalNorm[3], OnNorm[3];
  const char *Names[3] = {"JIT only", "Atomics only", "Ocelot"};
  const ExecModel Models[3] = {ExecModel::JitOnly, ExecModel::AtomicsOnly,
                               ExecModel::Ocelot};

  for (const BenchmarkDef &B : allBenchmarks()) {
    CompiledBenchmark Jit = compileBenchmark(B, ExecModel::JitOnly);
    double JitContinuous =
        measureContinuous(Jit, B, benchSmokeMode() ? 10 : 100, Seed)
            .CyclesPerRun;

    for (int M = 0; M < 3; ++M) {
      CompiledBenchmark CB = compileBenchmark(B, Models[M]);
      IntermittentMetrics I = measureIntermittent(
          CB, B, {.Energy = Energy, .TauBudget = TauBudget, .Seed = Seed});
      if (I.Trapped) {
        Full.addRow({B.Name, Names[M], "trap", "-", "-", "-"});
        continue;
      }
      if (I.Starved || I.CompletedRuns == 0) {
        Full.addRow({B.Name, Names[M], "starved", "-", "-", "-"});
        continue;
      }
      double Total =
          (I.OnCyclesPerRun + I.OffCyclesPerRun) / JitContinuous;
      double On = I.OnCyclesPerRun / JitContinuous;
      TotalNorm[M].push_back(Total);
      OnNorm[M].push_back(On);
      Full.addRow({B.Name, Names[M], fmt(I.OnCyclesPerRun, 0),
                   fmt(I.OffCyclesPerRun, 0), fmt(Total, 2), fmt(On, 3)});
    }
  }
  for (int M = 0; M < 3; ++M)
    Full.addRow({"gmean", Names[M], "-", "-", fmt(geomean(TotalNorm[M]), 2),
                 fmt(geomean(OnNorm[M]), 3)});
  std::printf("%s\n", Full.str().c_str());
  std::printf("Paper's shape: totals dominated by off/charging time "
              "(environment-dictated);\non-time proportions mirror the "
              "continuous results (Fig. 7).\n");
  return 0;
}
