//===- Workloads.cpp - The benchmark's four paper-shaped grids -------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "runtime/Simulation.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace ocelot;
using namespace perfbench;

namespace {

const std::vector<std::string> PaperBenchmarks = {
    "activity", "cem", "greenhouse", "photo", "send_photo", "tire"};

/// Table 2(b): the six paper benchmarks under Ocelot and JIT, both
/// monitors armed, default energy, power and sensors.
Grid table2bGrid(uint64_t Seed) {
  Grid G;
  G.Benchmarks = PaperBenchmarks;
  G.Models = {ExecModel::Ocelot, ExecModel::JitOnly};
  G.Scenarios = {"default"};
  G.Seeds = {Seed};
  G.TauBudget = 150'000'000;
  return G;
}

/// Fig. 8: the six paper benchmarks under JIT, Atomics and Ocelot with
/// the monitors off.
Grid fig8Grid(uint64_t Seed) {
  Grid G;
  G.Benchmarks = PaperBenchmarks;
  G.Models = {ExecModel::JitOnly, ExecModel::AtomicsOnly, ExecModel::Ocelot};
  G.Scenarios = {"default"};
  G.Seeds = {Seed};
  G.TauBudget = 60'000'000;
  G.Monitors = false;
  return G;
}

/// Table 7: the fusion benchmarks under Ocelot, JIT and Atomics on the
/// four correlated presets, monitors and oracle armed.
Grid table7Grid(uint64_t Seed) {
  Grid G;
  G.Benchmarks = {"ekf_fusion", "alarm_voting"};
  G.Models = {ExecModel::Ocelot, ExecModel::JitOnly, ExecModel::AtomicsOnly};
  G.Scenarios = {"fusion-calm", "fusion-lagged", "fusion-storm",
                 "fusion-volatile"};
  G.Seeds = {Seed};
  G.TauBudget = 40'000'000;
  G.Oracle = true;
  return G;
}

/// A fleet sweep as `ocelot-fleet run` defaults it (six benchmarks, Ocelot
/// and JIT, monitors armed) over many seeds with a short budget, so
/// per-cell fixed cost and sink I/O dominate.
Grid fleetGrid(uint64_t Seed) {
  Grid G;
  G.Benchmarks = PaperBenchmarks;
  G.Models = {ExecModel::Ocelot, ExecModel::JitOnly};
  G.Scenarios = {"default"};
  for (uint64_t I = 0; I < 200; ++I)
    G.Seeds.push_back(Seed + I);
  G.TauBudget = 200'000;
  return G;
}

const char *fleetModelName(ExecModel M) {
  switch (M) {
  case ExecModel::JitOnly:
    return "jit";
  case ExecModel::AtomicsOnly:
    return "atomics";
  case ExecModel::Ocelot:
    return "ocelot";
  case ExecModel::CheckOnly:
    return "check";
  }
  return "?";
}

} // namespace

const std::vector<Workload> &perfbench::workloads() {
  static const std::vector<Workload> All = {
      {"table2b-monitored", 99, 2, false, table2bGrid},
      {"fig8-unmonitored", 77, 1, false, fig8Grid},
      {"table7-oracle", 137, 2, false, table7Grid},
      {"fleet-sharded", 99, 1, true, fleetGrid},
  };
  return All;
}

const Workload *perfbench::findWorkload(const std::string &Name) {
  for (const Workload &W : workloads())
    if (Name == W.Name)
      return &W;
  return nullptr;
}

SweepSpec Grid::sweepSpec() const {
  SweepSpec S;
  std::string Error;
  if (!fleetSpec().resolve(S, Error)) {
    std::fprintf(stderr, "perfbench: bad workload grid: %s\n", Error.c_str());
    std::abort();
  }
  return S;
}

FleetSpec Grid::fleetSpec() const {
  FleetSpec F;
  for (ExecModel M : Models)
    F.Models.push_back(fleetModelName(M));
  F.Benchmarks = Benchmarks;
  F.Energies = {EnergyConfig{}};
  F.Powers = {"default"};
  F.Scenarios = Scenarios;
  F.Seeds = Seeds;
  F.TauBudget = TauBudget;
  F.Monitors = Monitors;
  F.Oracle = Oracle;
  return F;
}

const char *perfbench::sourceFor(const BenchmarkDef &B, ExecModel M) {
  bool Manual = M == ExecModel::AtomicsOnly || M == ExecModel::CheckOnly;
  return Manual ? B.AtomicsSrc : B.AnnotatedSrc;
}

CompileOptions perfbench::optionsFor(ExecModel M) {
  CompileOptions Opts;
  Opts.Model = M;
  return Opts;
}

std::string perfbench::cellRecord(const IntermittentMetrics &M) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "%" PRIu64 " %" PRIu64 " %.17g %" PRIu64 " %" PRIu64
                " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 " %d %d",
                M.CompletedRuns, M.ViolatingRuns, M.RebootsPerRun,
                M.OracleFreshOutputs, M.OracleStaleOutputs,
                M.OracleCrossEpochOutputs, M.OracleDirtyRuns,
                M.OverEnforcedRuns, M.UnderEnforcedRuns, M.Starved ? 1 : 0,
                M.Trapped ? 1 : 0);
  return Buf;
}

std::vector<std::string>
perfbench::cellRecords(const std::vector<SweepCellResult> &Cells) {
  std::vector<std::string> Out;
  Out.reserve(Cells.size());
  for (const SweepCellResult &C : Cells)
    Out.push_back(cellRecord(C.Metrics));
  return Out;
}

std::string perfbench::replayCell(const SweepSpec &Spec, size_t I,
                                  const CompiledArtifact &A,
                                  DispatchEngine Engine, CellCounts &Counts) {
  SweepSpec::CellCoords C = Spec.cellAt(I);
  const BenchmarkDef &B = *Spec.Benchmarks[C.Bench];
  uint64_t Seed = Spec.Seeds[C.Seed];
  RunConfig Cfg;
  auto World = Spec.Scenarios.empty() ? nullptr : Spec.Scenarios[C.Scenario];
  Cfg.Sensors = World ? World : B.scenario(Seed);
  Cfg.Seed = Seed;
  Cfg.Plan = FailurePlan::energyDriven();
  Cfg.Energy = Spec.Energies[C.Energy];
  Cfg.Power = Spec.Powers.empty() ? nullptr : Spec.Powers[C.Power];
  Cfg.MonitorBitVector = Spec.Monitors;
  Cfg.MonitorFormal = Spec.Monitors;
  Cfg.Oracle = Spec.Oracle;
  Cfg.Dispatch = Engine;
  Simulation Sim(A, std::move(Cfg));

  IntermittentMetrics M;
  uint64_t Reboots = 0;
  while (Sim.tau() < Spec.TauBudget) {
    RunResult R = Sim.runOnce();
    Counts.Steps += R.Steps;
    Counts.Reboots += R.Reboots;
    Counts.Checkpoints += R.Checkpoints;
    Counts.UndoLogEntries += R.UndoLogEntries;
    Counts.AtomicCommits += R.AtomicCommits;
    Counts.AtomicAborts += R.AtomicAborts;
    Counts.Violations += R.Violations.size();
    Counts.OracleOutputs += R.OracleFresh + R.OracleStale + R.OracleCrossEpoch;
    if (R.Starved) {
      M.Starved = true;
      break;
    }
    if (!R.Completed) {
      M.Trapped = true;
      break;
    }
    Reboots += R.Reboots;
    ++M.CompletedRuns;
    bool Flagged = R.ViolatedFresh || R.ViolatedConsistent;
    M.ViolatingRuns += Flagged;
    if (Spec.Oracle) {
      M.OracleFreshOutputs += R.OracleFresh;
      M.OracleStaleOutputs += R.OracleStale;
      M.OracleCrossEpochOutputs += R.OracleCrossEpoch;
      bool Dirty = R.OracleStale + R.OracleCrossEpoch > 0;
      M.OracleDirtyRuns += Dirty;
      M.OverEnforcedRuns += Flagged && !Dirty;
      M.UnderEnforcedRuns += Dirty && !Flagged;
    }
  }
  if (M.CompletedRuns)
    M.RebootsPerRun = static_cast<double>(Reboots) /
                      static_cast<double>(M.CompletedRuns);
  return cellRecord(M);
}

bool perfbench::readExpected(const std::string &Path,
                             std::vector<std::string> &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  Out.clear();
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty() && Line[0] != '#')
      Out.push_back(Line);
  return true;
}

bool perfbench::writeExpected(const std::string &Path,
                              const std::string &Workload, uint64_t Seed,
                              const std::vector<std::string> &Records) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "# perfbench expected cell records: workload=" << Workload
      << " seed=" << Seed << " cells=" << Records.size() << "\n"
      << "# completed violating reboots/run oracle-fresh oracle-stale "
         "oracle-cross dirty over under starved trapped\n";
  for (const std::string &R : Records)
    Out << R << "\n";
  return static_cast<bool>(Out);
}
