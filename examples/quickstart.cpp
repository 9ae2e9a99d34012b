//===- quickstart.cpp - Ocelot in five minutes ------------------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quickstart: write an OCL program with Fresh/Consistent annotations,
/// compile it with Ocelot, inspect the inferred atomic regions, and run it
/// on simulated intermittent power with violation monitoring.
///
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "ocelot/Toolchain.h"
#include "runtime/Simulation.h"

#include <cstdio>

using namespace ocelot;

int main() {
  // 1. An annotated program: the temperature must be *fresh* when the
  //    alarm decision is made (the paper's Fig. 2 scenario).
  const char *Source = R"(
io thermometer;

fn main() {
  let x = thermometer();
  Fresh(x);
  if x > 30 {
    alarm();
  }
  log(x);
}
)";

  // 2. Compile under the Ocelot execution model: JIT checkpoints
  //    everywhere, plus inferred atomic regions enforcing the annotations.
  //    Toolchain::compile returns a structured Status and an immutable,
  //    shareable CompiledArtifact.
  CompileOptions Opts;
  Opts.Model = ExecModel::Ocelot;
  Compilation C = Toolchain().compile(Source, Opts);
  if (!C.ok()) {
    std::fprintf(stderr, "compilation failed:\n%s", C.status().str().c_str());
    return 1;
  }
  const CompiledArtifact &A = C.artifact();

  std::printf("== Compiled IR (with the inferred atomic region) ==\n\n%s\n",
              printProgram(A.program()).c_str());
  std::printf("Policies: %zu fresh, %zu consistent; inferred regions: %zu\n",
              A.policies().Fresh.size(), A.policies().Consistent.size(),
              A.inferredRegions().size());
  for (const FreshPolicy &Pol : A.policies().Fresh) {
    std::printf("  Fresh(%s): %zu input chain(s), %zu use site(s)\n",
                Pol.VarName.c_str(), Pol.Inputs.size(), Pol.Uses.size());
    for (const ProvChain &Ch : Pol.Inputs)
      std::printf("    input: %s\n", chainToString(A.program(), Ch).c_str());
  }

  // 3. Run on intermittent power (Capybara-like capacitor + harvester)
  //    with both violation detectors armed. The Simulation owns all mutable
  //    run state; the artifact stays shared and read-only.
  RunConfig Cfg;
  Cfg.Sensors = SensorScenario::Builder()
                    .channel(0, noiseChannel(10, 40, 400, 42))
                    .build(); // weather
  Cfg.Plan = FailurePlan::energyDriven();
  Cfg.MonitorBitVector = true;
  Cfg.MonitorFormal = true;
  Cfg.RecordTrace = true;
  Simulation Sim(A, std::move(Cfg));

  int Violations = 0;
  uint64_t Reboots = 0;
  for (int Run = 0; Run < 200; ++Run) {
    RunResult Res = Sim.runOnce();
    if (!Res.Completed) {
      std::fprintf(stderr, "run failed: %s\n", Res.Trap.c_str());
      return 1;
    }
    if (Res.ViolatedFresh || Res.ViolatedConsistent)
      ++Violations;
    Reboots += Res.Reboots;
  }
  std::printf("\n== 200 intermittent runs ==\n");
  std::printf("reboots: %llu, freshness/consistency violations: %d\n",
              static_cast<unsigned long long>(Reboots), Violations);
  std::printf("Ocelot's region re-collects the input after every failure, "
              "so the alarm decision\nis always made on fresh data.\n");
  return Violations == 0 ? 0 : 1;
}
