//===- Experiment.h - Shared evaluation harness ------------------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the paper's evaluation (§7): compile a benchmark
/// under an execution model into an immutable `CompiledArtifact`, run it
/// continuously or intermittently in a `Simulation`, and aggregate runtime /
/// correctness metrics. Each bench/ binary regenerates one table or figure
/// on top of this; `SweepRunner` fans whole grids of these measurements
/// across worker threads.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_HARNESS_EXPERIMENT_H
#define OCELOT_HARNESS_EXPERIMENT_H

#include "apps/Benchmarks.h"
#include "ocelot/Toolchain.h"
#include "runtime/Simulation.h"

#include <set>
#include <string>

namespace ocelot {

/// A benchmark compiled under one execution model. The artifact is an
/// immutable shared handle: one CompiledBenchmark can back any number of
/// concurrent measurements.
struct CompiledBenchmark {
  std::string Name;
  ExecModel Model = ExecModel::Ocelot;
  CompiledArtifact Artifact;
};

/// Compiles \p B under \p Model (the Atomics-only model uses the manually
/// regioned source). Aborts the process with a message on compile failure —
/// benches treat the benchmarks as trusted inputs.
///
/// \p MainReps > 1 compiles a *throughput driver* variant: the app's
/// `main` is renamed and called MainReps times from a generated `for`
/// loop, so one activation executes the app body that many times.
/// Interpreter-throughput measurements use this to stay dispatch-bound on
/// trivial apps (send_photo executes ~10 instructions per activation;
/// unamortized, a measurement of it times per-activation setup instead).
CompiledBenchmark compileBenchmark(const BenchmarkDef &B, ExecModel Model,
                                   int MainReps = 1);

/// The §7.3 pathological failure points of a compiled benchmark: every use
/// of a fresh variable and every non-first member of each consistent set.
std::set<InstrRef> pathologicalPoints(const CompiledArtifact &A);

/// Average cycles per completed run on continuous power.
struct ContinuousMetrics {
  double CyclesPerRun = 0;
  uint64_t Runs = 0;
};
ContinuousMetrics measureContinuous(const CompiledBenchmark &CB,
                                    const BenchmarkDef &B, int Runs,
                                    uint64_t Seed);

/// Intermittent execution over a fixed simulated-time budget.
struct IntermittentMetrics {
  double OnCyclesPerRun = 0;
  double OffCyclesPerRun = 0;
  double RebootsPerRun = 0;
  uint64_t CompletedRuns = 0;
  uint64_t ViolatingRuns = 0; ///< Completed runs containing any violation.
  bool Starved = false;
  /// A run trapped and the simulated device wedged (metrics cover the
  /// runs before the crash). Never happens under the benchmarks' own
  /// scenarios — it surfaces when a swept `SensorScenario` feeds values
  /// outside the range the firmware was written to trust, which is itself
  /// an input-robustness observation worth a table cell.
  bool Trapped = false;
  std::string Trap; ///< The trap message when Trapped.

  /// Percentage (0–100) of completed runs containing a violation.
  double violationPct() const {
    return CompletedRuns == 0
               ? 0.0
               : 100.0 * static_cast<double>(ViolatingRuns) /
                     static_cast<double>(CompletedRuns);
  }

  // --- Input-epoch oracle aggregates (the Oracle flag of
  // measureIntermittent; all zero otherwise). Output counts sum over
  // every completed run's committed outputs; run counts cross-reference
  // the oracle's ground truth against the monitors' enforcement verdict
  // per run (src/fusion/FusionOracle.h).
  uint64_t OracleFreshOutputs = 0;
  uint64_t OracleStaleOutputs = 0;
  uint64_t OracleCrossEpochOutputs = 0;
  uint64_t OracleDirtyRuns = 0;   ///< Runs with any stale/cross-epoch output.
  uint64_t OverEnforcedRuns = 0;  ///< Monitors flagged, oracle clean.
  uint64_t UnderEnforcedRuns = 0; ///< Oracle dirty, monitors silent.

  double oracleOutputs() const {
    return static_cast<double>(OracleFreshOutputs + OracleStaleOutputs +
                               OracleCrossEpochOutputs);
  }
  double staleOutputPct() const {
    double N = oracleOutputs();
    return N == 0 ? 0.0
                  : 100.0 * static_cast<double>(OracleStaleOutputs) / N;
  }
  double crossEpochOutputPct() const {
    double N = oracleOutputs();
    return N == 0
               ? 0.0
               : 100.0 * static_cast<double>(OracleCrossEpochOutputs) / N;
  }
  double oracleDirtyPct() const {
    return CompletedRuns == 0
               ? 0.0
               : 100.0 * static_cast<double>(OracleDirtyRuns) /
                     static_cast<double>(CompletedRuns);
  }
  double overEnforcedPct() const {
    return CompletedRuns == 0
               ? 0.0
               : 100.0 * static_cast<double>(OverEnforcedRuns) /
                     static_cast<double>(CompletedRuns);
  }
  double underEnforcedPct() const {
    return CompletedRuns == 0
               ? 0.0
               : 100.0 * static_cast<double>(UnderEnforcedRuns) /
                     static_cast<double>(CompletedRuns);
  }
};

/// One intermittent measurement: an energy-driven failure plan run
/// until the simulated time reaches TauBudget. Every field has a default,
/// so callers name only what they set (`{.TauBudget = T, .Seed = S}`).
struct IntermittentSpec {
  EnergyConfig Energy{};
  uint64_t TauBudget = 0; ///< Simulated-time budget (τ) of the run loop.
  uint64_t Seed = 1;
  bool Monitors = false; ///< Arm both violation detectors.
  /// Harvesting environment (src/power/); null keeps the legacy-jitter
  /// recharge behavior.
  std::shared_ptr<const PowerSource> Power = nullptr;
  /// Sensed world (src/sensors/); null keeps the benchmark's own
  /// seeded-noise scenario (`B.scenario(Seed)`).
  std::shared_ptr<const SensorScenario> Sensors = nullptr;
  /// Also score every committed output with the input-epoch consistency
  /// oracle (src/fusion/FusionOracle.h) and fill the Oracle* aggregates;
  /// the default run (false) is bitwise unaffected.
  bool Oracle = false;
};
IntermittentMetrics measureIntermittent(const CompiledBenchmark &CB,
                                        const BenchmarkDef &B,
                                        const IntermittentSpec &Spec);

/// Table 2(a): percentage (0–100) of runs violating any policy under
/// pathological failure injection. \p Trace optionally attaches a
/// telemetry sink to every run (src/telemetry/TraceSink.h); the returned
/// percentage is bitwise identical with it attached — it only records.
double pathologicalViolationPct(const CompiledBenchmark &CB,
                                const BenchmarkDef &B, int Runs,
                                uint64_t Seed, TraceSink *Trace = nullptr);

/// True when OCELOT_BENCH_SMOKE is set in the environment (to anything but
/// "", "0" or "false"): bench binaries shrink their iteration counts /
/// simulated-time budgets so the ctest `bench` label can exercise every
/// experiment driver on each PR.
bool benchSmokeMode();

} // namespace ocelot

#endif // OCELOT_HARNESS_EXPERIMENT_H
