//===- RunTaintGoldenTest.cpp - Run-level taint observables golden -----------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins every run-level observable that depends on dynamic input taint, byte
// for byte. For every paper and fusion benchmark under Ocelot, JIT-only and
// Atomics-only, on the tree and threaded engines, one fixed-seed device runs
// a few dozen activations under an energy-driven failure plan with both
// monitors and the input-epoch oracle armed. The test renders each run's
// ViolationRecords (kind, site, set, tau, detail()) and OracleRecords (tau,
// epoch, verdict, input epoch span) and compares the text against
// tests/goldens/run_taint.golden.
//
// A violation's detail() names epochs of the value's input span: the
// oldest one for a stale use, the oldest and newest for a split consistent
// set. The same cells with the oracle off must render the golden minus its
// oracle lines: arming the oracle changes no violation.
//
// To re-bless after an intended change of run output:
//   OCELOT_BLESS_GOLDEN=1 ./RunTaintGoldenTest
//
//===----------------------------------------------------------------------===//

#include "apps/Benchmarks.h"
#include "fusion/FusionBenchmarks.h"
#include "harness/Experiment.h"
#include "runtime/Simulation.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace ocelot;

namespace {

const char *const GoldenPath = OCELOT_GOLDEN_DIR "/run_taint.golden";
constexpr uint64_t Seed = 2021;
constexpr int Runs = 40;

void renderCell(const BenchmarkDef &B, ExecModel Model, DispatchEngine E,
                bool Oracle, std::ostream &Out) {
  CompiledBenchmark CB = compileBenchmark(B, Model);
  const Program &P = CB.Artifact.program();
  auto Ref = [&](const InstrRef &R) {
    return P.function(R.Func)->name() + "@" + std::to_string(R.Label);
  };

  RunConfig Cfg;
  Cfg.Sensors = B.scenario(Seed);
  Cfg.Seed = Seed;
  Cfg.Plan = FailurePlan::energyDriven();
  Cfg.MonitorBitVector = true;
  Cfg.MonitorFormal = true;
  Cfg.Oracle = Oracle;
  Cfg.Dispatch = E;
  Simulation Sim(CB.Artifact, std::move(Cfg));

  Out << "=== " << B.Name << " " << execModelName(Model) << " "
      << (E == DispatchEngine::Tree ? "tree" : "threaded") << "\n";
  for (int Run = 0; Run < Runs; ++Run) {
    RunResult R = Sim.runOnce();
    Out << "run " << Run << " completed=" << R.Completed
        << " starved=" << R.Starved << " reboots=" << R.Reboots
        << " tau=" << R.FinalTau << "\n";
    for (const ViolationRecord &V : R.Violations)
      Out << "  violation " << violationKindName(V.K) << " site="
          << (V.Site.Func >= 0 ? Ref(V.Site) : std::string("-"))
          << " set=" << V.SetId << " tau=" << V.Tau << " " << V.detail()
          << "\n";
    for (const OracleRecord &O : R.OracleRecords) {
      Out << "  oracle " << outputKindName(O.Kind) << " tau=" << O.Tau
          << " epoch=" << O.Epoch << " " << oracleVerdictName(O.Verdict)
          << ":";
      if (!O.Inputs.empty())
        Out << " e" << O.Inputs.min() << "..e" << O.Inputs.max();
      Out << "\n";
    }
    if (R.Starved || !R.Trap.empty())
      break;
  }
}

std::string renderAll(bool Oracle) {
  std::ostringstream Out;
  std::vector<const BenchmarkDef *> Benches;
  for (const BenchmarkDef &B : allBenchmarks())
    Benches.push_back(&B);
  for (const BenchmarkDef &B : fusionBenchmarks())
    Benches.push_back(&B);
  for (const BenchmarkDef *B : Benches)
    for (ExecModel Model :
         {ExecModel::Ocelot, ExecModel::JitOnly, ExecModel::AtomicsOnly})
      for (DispatchEngine E : {DispatchEngine::Tree, DispatchEngine::Threaded})
        renderCell(*B, Model, E, Oracle, Out);
  return Out.str();
}

std::string readGolden() {
  std::ifstream In(GoldenPath, std::ios::binary);
  EXPECT_TRUE(In) << "missing golden " << GoldenPath;
  std::stringstream Expected;
  Expected << In.rdbuf();
  return Expected.str();
}

/// Compares \p Actual with \p Expected, pointing at the first differing
/// line instead of dumping the whole file.
void expectSameText(const std::string &Expected, const std::string &Actual) {
  if (Expected == Actual)
    return;
  std::istringstream EIn(Expected), AIn(Actual);
  std::string EL, AL;
  for (int Line = 1;; ++Line) {
    bool HasE = static_cast<bool>(std::getline(EIn, EL));
    bool HasA = static_cast<bool>(std::getline(AIn, AL));
    if (!HasE && !HasA)
      break;
    if (!HasE || !HasA || EL != AL) {
      FAIL() << "run output differs from " << GoldenPath << " at line "
             << Line << "\n  golden: " << (HasE ? EL : "<eof>")
             << "\n  actual: " << (HasA ? AL : "<eof>");
    }
  }
  FAIL() << "run output differs from " << GoldenPath;
}

TEST(RunTaintGolden, RunObservablesMatchGolden) {
  std::string Actual = renderAll(/*Oracle=*/true);
  const char *Bless = std::getenv("OCELOT_BLESS_GOLDEN");
  if (Bless && *Bless && std::string(Bless) != "0") {
    std::ofstream(GoldenPath, std::ios::binary) << Actual;
    GTEST_SKIP() << "wrote " << GoldenPath;
  }
  expectSameText(readGolden(), Actual);
}

TEST(RunTaintGolden, ViolationsIdenticalWithoutOracle) {
  std::istringstream In(readGolden());
  std::string Expected, Line;
  while (std::getline(In, Line))
    if (Line.rfind("  oracle ", 0) != 0)
      Expected += Line + "\n";
  expectSameText(Expected, renderAll(/*Oracle=*/false));
}

} // namespace
