//===- Experiment.cpp - Shared evaluation harness --------------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>

using namespace ocelot;

namespace {

/// Renames the app's `main` and appends a driver that calls it \p Reps
/// times from a `for` loop (bounds must be integer literals, so the count
/// is spliced into the source).
std::string repeatMainSource(const char *Src, int Reps) {
  std::string S(Src);
  const std::string Needle = "fn main(";
  size_t At = S.find(Needle);
  if (At == std::string::npos)
    return S;
  S.replace(At, Needle.size(), "fn app_main(");
  S += "\nfn main() {\n  for rep in 0.." + std::to_string(Reps) +
       " {\n    app_main();\n  }\n}\n";
  return S;
}

} // namespace

CompiledBenchmark ocelot::compileBenchmark(const BenchmarkDef &B,
                                           ExecModel Model, int MainReps) {
  CompiledBenchmark CB;
  CB.Name = B.Name;
  CB.Model = Model;
  CompileOptions Opts;
  Opts.Model = Model;
  // Checker mode (§8) validates manual placement, so it gets the manually
  // regioned source, as does the Atomics-only build.
  bool WantManualRegions =
      Model == ExecModel::AtomicsOnly || Model == ExecModel::CheckOnly;
  const char *Src = WantManualRegions ? B.AtomicsSrc : B.AnnotatedSrc;
  std::string Repeated;
  if (MainReps > 1) {
    Repeated = repeatMainSource(Src, MainReps);
    Src = Repeated.c_str();
  }
  // Cached: fleet shards and repeated sweeps hit the same handful of
  // (benchmark, model) pairs, so each pair compiles once per process.
  Compilation C = Toolchain().compileCached(Src, Opts);
  if (!C.ok()) {
    std::fprintf(stderr, "failed to compile benchmark %s under %s:\n%s\n",
                 B.Name.c_str(), execModelName(Model),
                 C.status().str().c_str());
    std::abort();
  }
  CB.Artifact = C.artifact();
  return CB;
}

std::set<InstrRef> ocelot::pathologicalPoints(const CompiledArtifact &A) {
  std::set<InstrRef> Points;
  for (const auto &[Use, Sensors] : A.monitorPlan().UseChecks)
    Points.insert(Use);
  for (const ConsistentSetPlan &SP : A.monitorPlan().Sets)
    for (size_t M = 1; M < SP.Members.size(); ++M)
      Points.insert(SP.Members[M].back());
  return Points;
}

ContinuousMetrics ocelot::measureContinuous(const CompiledBenchmark &CB,
                                            const BenchmarkDef &B, int Runs,
                                            uint64_t Seed) {
  RunConfig Cfg;
  Cfg.Sensors = B.scenario(Seed);
  Cfg.Seed = Seed;
  Simulation Sim(CB.Artifact, std::move(Cfg));

  ContinuousMetrics M;
  uint64_t Total = 0;
  for (int Run = 0; Run < Runs; ++Run) {
    RunResult R = Sim.runOnce();
    if (!R.Completed) {
      std::fprintf(stderr, "continuous run of %s failed: %s\n",
                   CB.Name.c_str(), R.Trap.c_str());
      std::abort();
    }
    Total += R.OnCycles;
    ++M.Runs;
  }
  M.CyclesPerRun =
      M.Runs ? static_cast<double>(Total) / static_cast<double>(M.Runs) : 0;
  return M;
}

IntermittentMetrics ocelot::measureIntermittent(const CompiledBenchmark &CB,
                                                const BenchmarkDef &B,
                                                const IntermittentSpec &Spec) {
  RunConfig Cfg;
  Cfg.Sensors = Spec.Sensors ? Spec.Sensors : B.scenario(Spec.Seed);
  Cfg.Seed = Spec.Seed;
  Cfg.Plan = FailurePlan::energyDriven();
  Cfg.Energy = Spec.Energy;
  Cfg.Power = Spec.Power;
  // The evaluation's detector is the paper's §7.3 bit vector alone; the
  // formal monitor (which forces runtime taint) is a cross-check in the
  // tests, and counts the same runs on every grid the harness evaluates
  // (BenchmarksTest's one-monitor guard). Taint stays on for the oracle.
  Cfg.MonitorBitVector = Spec.Monitors;
  Cfg.Oracle = Spec.Oracle;
  Simulation Sim(CB.Artifact, std::move(Cfg));

  IntermittentMetrics M;
  uint64_t On = 0, Off = 0, Reboots = 0;
  while (Sim.tau() < Spec.TauBudget) {
    RunResult R = Sim.runOnce();
    if (R.Starved) {
      M.Starved = true;
      break;
    }
    if (!R.Completed) {
      // Under a swept scenario a trap is data the sweep reports (the
      // device wedged on an input its firmware never expected), not a
      // harness error worth killing the whole grid for.
      std::fprintf(stderr, "intermittent run of %s trapped: %s\n",
                   CB.Name.c_str(), R.Trap.c_str());
      M.Trapped = true;
      M.Trap = R.Trap;
      break;
    }
    On += R.OnCycles;
    Off += R.OffCycles;
    Reboots += R.Reboots;
    ++M.CompletedRuns;
    bool ModelFlagged = R.ViolatedFresh || R.ViolatedConsistent;
    if (ModelFlagged)
      ++M.ViolatingRuns;
    if (Spec.Oracle) {
      M.OracleFreshOutputs += R.OracleFresh;
      M.OracleStaleOutputs += R.OracleStale;
      M.OracleCrossEpochOutputs += R.OracleCrossEpoch;
      bool OracleDirty = R.OracleStale + R.OracleCrossEpoch > 0;
      if (OracleDirty)
        ++M.OracleDirtyRuns;
      // Per-run cross-classification of the two verdicts: the monitors
      // enforce the program's *annotations*, the oracle scores the
      // *outputs* — the two disagreeing in either direction is table7's
      // whole measurement.
      if (ModelFlagged && !OracleDirty)
        ++M.OverEnforcedRuns;
      if (OracleDirty && !ModelFlagged)
        ++M.UnderEnforcedRuns;
    }
  }
  if (M.CompletedRuns) {
    double N = static_cast<double>(M.CompletedRuns);
    M.OnCyclesPerRun = static_cast<double>(On) / N;
    M.OffCyclesPerRun = static_cast<double>(Off) / N;
    M.RebootsPerRun = static_cast<double>(Reboots) / N;
  }
  return M;
}

double ocelot::pathologicalViolationPct(const CompiledBenchmark &CB,
                                        const BenchmarkDef &B, int Runs,
                                        uint64_t Seed, TraceSink *Trace) {
  RunConfig Cfg;
  Cfg.Sensors = B.scenario(Seed);
  Cfg.Seed = Seed;
  Cfg.Plan = FailurePlan::pathological(pathologicalPoints(CB.Artifact));
  // Long, environment-shifting off times so staleness is observable.
  Cfg.Plan.setOffTime(20000, 200000);
  Cfg.MonitorBitVector = true; // As in measureIntermittent: §7.3 only.
  Cfg.Telemetry = Trace;
  Simulation Sim(CB.Artifact, std::move(Cfg));

  int Violating = 0;
  int Completed = 0;
  for (int Run = 0; Run < Runs; ++Run) {
    RunResult R = Sim.runOnce();
    if (!R.Completed) {
      std::fprintf(stderr, "pathological run of %s failed: %s\n",
                   CB.Name.c_str(), R.Trap.c_str());
      std::abort();
    }
    ++Completed;
    if (R.ViolatedFresh || R.ViolatedConsistent)
      ++Violating;
  }
  return Completed ? 100.0 * static_cast<double>(Violating) /
                         static_cast<double>(Completed)
                   : 0.0;
}

bool ocelot::benchSmokeMode() {
  const char *V = std::getenv("OCELOT_BENCH_SMOKE");
  if (!V || !*V)
    return false;
  // Conventional opt-out spellings still mean "off".
  return std::string_view(V) != "0" && std::string_view(V) != "false";
}
