//===- table7_fusion.cpp - Over/under-enforcement on fused inputs ----------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Beyond the paper: every prior table *assumes* the enforcement models
/// are scored correctly, because violations are whatever the model's own
/// monitors flag. The input-epoch consistency oracle (src/fusion/) breaks
/// that circularity: it tags each sensor read with its reboot epoch,
/// follows the tags through the taint machinery into committed outputs,
/// and classifies every output fresh / stale / cross-epoch — ground truth
/// independent of any ExecModel. This driver sweeps the fusion
/// benchmarks (EKF-style primary+secondary correction, multi-sensor
/// alarm voting) x {Ocelot, JIT, Atomics} x correlated-scenario preset
/// with the bit-vector (§7.3) violation monitor and the oracle armed, then
/// cross-references the two verdict streams per cell:
///
///   over-enforcement  = runs the model flagged but the oracle scored
///                       clean (enforcement cost charged for no hazard);
///   under-enforcement = runs with oracle-dirty outputs the model never
///                       flagged (hazards the model cannot see).
///
///   table7_fusion [--sensors=S]... [--workers=N]
///
/// With no --sensors flags the sweep covers the four fusion presets
/// (fusion-calm, fusion-lagged, fusion-storm, fusion-volatile). Stdout
/// is seed-deterministic and diff-stable for any --workers=N; timing
/// goes to stderr.
///
//===----------------------------------------------------------------------===//

#include "fusion/FusionBenchmarks.h"
#include "harness/SweepRunner.h"
#include "harness/TableFmt.h"
#include "sensors/SensorScenarios.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

using namespace ocelot;

int main(int argc, char **argv) {
  unsigned Workers = 0; // 0 = hardware concurrency.
  std::vector<std::string> SensorSpecs;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg.rfind("--workers=", 0) == 0) {
      if (!parseWorkersFlag(Arg.c_str() + 10, Workers))
        return 1;
    } else if (Arg.rfind("--sensors=", 0) == 0) {
      SensorSpecs.push_back(Arg.substr(10));
    } else {
      std::fprintf(stderr,
                   "usage: table7_fusion [--sensors=S]... [--workers=N]\n");
      return 1;
    }
  }
  if (SensorSpecs.empty())
    SensorSpecs = {"fusion-calm", "fusion-lagged", "fusion-storm",
                   "fusion-volatile"};

  SweepSpec Spec;
  for (const std::string &S : SensorSpecs) {
    std::string Error;
    std::shared_ptr<const SensorScenario> Sc = resolveSensorScenario(S, Error);
    if (!Sc) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    Spec.Scenarios.push_back(std::move(Sc));
  }

  std::printf("== Table 7: Oracle-scored over/under-enforcement on fused "
              "inputs ==\n\n");

  const std::pair<ExecModel, const char *> ModelRows[] = {
      {ExecModel::Ocelot, "Ocelot"},
      {ExecModel::JitOnly, "JIT"},
      {ExecModel::AtomicsOnly, "Atomics"}};
  for (const auto &[Model, Label] : ModelRows)
    Spec.Models.push_back(Model);
  const std::pair<const char *, const char *> Benches[] = {
      {"ekf_fusion", "EKF Fusion"}, {"alarm_voting", "Alarm Voting"}};
  for (const auto &[Id, Label] : Benches)
    Spec.Benchmarks.push_back(findBenchmark(Id));
  Spec.Energies = {EnergyConfig{}};
  Spec.Seeds = {137};
  Spec.TauBudget = benchSmokeMode() ? 2'500'000 : 40'000'000;
  Spec.Monitors = true;
  Spec.Oracle = true;

  SweepRunner Runner(Workers);
  auto Start = std::chrono::steady_clock::now();
  std::vector<SweepCellResult> Cells = Runner.run(Spec);
  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();

  // Four tables over the same (scenario x model) rows: the oracle's two
  // hazard rates (per committed output), then the two enforcement-gap
  // rates (per completed run).
  std::vector<std::string> Head = {"Sensor scenario", "Exec. Model"};
  for (const auto &[Id, Label] : Benches)
    Head.push_back(Label);
  Table Stale{std::vector<std::string>(Head)};
  Table Cross{std::vector<std::string>(Head)};
  Table Over{std::vector<std::string>(Head)};
  Table Under{std::vector<std::string>(Head)};
  for (size_t Sc = 0; Sc < Spec.Scenarios.size(); ++Sc) {
    for (size_t M = 0; M < Spec.Models.size(); ++M) {
      std::vector<std::string> SRow = {SensorSpecs[Sc], ModelRows[M].second};
      std::vector<std::string> CRow = SRow, ORow = SRow, URow = SRow;
      for (size_t B = 0; B < Spec.Benchmarks.size(); ++B) {
        const IntermittentMetrics &I =
            Cells[Spec.cellIndex({.Model = M, .Bench = B, .Scenario = Sc})]
                .Metrics;
        if (I.Trapped || I.Starved || I.CompletedRuns == 0) {
          const char *Tag = I.Trapped ? "trap" : "starved";
          SRow.push_back(Tag);
          CRow.push_back(Tag);
          ORow.push_back(Tag);
          URow.push_back(Tag);
          continue;
        }
        SRow.push_back(fmtPct(I.staleOutputPct(), 2));
        CRow.push_back(fmtPct(I.crossEpochOutputPct(), 2));
        ORow.push_back(fmtPct(I.overEnforcedPct(), 2));
        URow.push_back(fmtPct(I.underEnforcedPct(), 2));
      }
      Stale.addRow(std::move(SRow));
      Cross.addRow(std::move(CRow));
      Over.addRow(std::move(ORow));
      Under.addRow(std::move(URow));
    }
  }
  std::printf("-- Stale %% of committed outputs (oracle) --\n%s\n",
              Stale.str().c_str());
  std::printf("-- Cross-epoch %% of committed outputs (oracle) --\n%s\n",
              Cross.str().c_str());
  std::printf("-- Over-enforced %% of completed runs (model flagged, oracle "
              "clean) --\n%s\n",
              Over.str().c_str());
  std::printf("-- Under-enforced %% of completed runs (oracle dirty, model "
              "silent) --\n%s\n",
              Under.str().c_str());
  printSweepTiming(Cells.size(), Runner.workers(), Secs);

  // Deterministic headline: the first preset (in row order) where Ocelot
  // commits zero cross-epoch outputs on every benchmark while some weaker
  // model commits at least one. This is the paper's enforcement claim
  // measured rather than assumed; the CI golden pins it.
  std::string Witness, WitnessModel;
  for (size_t Sc = 0; Sc < Spec.Scenarios.size() && Witness.empty(); ++Sc) {
    bool OcelotClean = true;
    for (size_t B = 0; B < Spec.Benchmarks.size(); ++B)
      if (Cells[Spec.cellIndex({.Model = 0, .Bench = B, .Scenario = Sc})]
              .Metrics.OracleCrossEpochOutputs != 0)
        OcelotClean = false;
    if (!OcelotClean)
      continue;
    for (size_t M = 1; M < Spec.Models.size() && Witness.empty(); ++M)
      for (size_t B = 0; B < Spec.Benchmarks.size(); ++B)
        if (Cells[Spec.cellIndex({.Model = M, .Bench = B, .Scenario = Sc})]
                .Metrics.OracleCrossEpochOutputs != 0) {
          Witness = SensorSpecs[Sc];
          WitnessModel = ModelRows[M].second;
          break;
        }
  }
  if (!Witness.empty())
    std::printf("Witness: on '%s', %s commits cross-epoch outputs and Ocelot "
                "commits none —\nthe oracle confirms Ocelot's enforcement "
                "rather than assuming it.\n",
                Witness.c_str(), WitnessModel.c_str());
  else
    std::printf("Witness: NONE — no preset separates Ocelot from the weaker "
                "models at this budget.\n");
  return 0;
}
