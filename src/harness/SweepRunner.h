//===- SweepRunner.h - Parallel evaluation-grid driver ----------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's evaluation (§7) is a grid of
/// (benchmark × exec model × energy config × power × sensor scenario ×
/// seed) intermittent simulations. `SweepRunner` compiles each
/// (benchmark, model) pair once into an immutable `CompiledArtifact`,
/// then fans the grid cells across a worker pool (`evaluateCells`, which
/// the fleet's `runShard` shares). Every cell builds its own `Simulation`
/// seeded purely from the spec (never from scheduling), and results are
/// emitted in flat cell order — so a parallel sweep is bitwise identical
/// to a sequential one, only faster.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_HARNESS_SWEEPRUNNER_H
#define OCELOT_HARNESS_SWEEPRUNNER_H

#include "harness/Experiment.h"

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace ocelot {

/// The grid to sweep. Cells are enumerated model-major: for each model,
/// for each benchmark, for each energy, for each power profile, for each
/// sensor scenario, for each seed.
struct SweepSpec {
  std::vector<const BenchmarkDef *> Benchmarks;
  std::vector<ExecModel> Models;
  std::vector<EnergyConfig> Energies;
  /// Harvesting environments (src/power/). Leave empty for the default
  /// single legacy-jitter cell per (model, benchmark, energy, seed) —
  /// existing sweeps keep their shape and results. Entries may repeat a
  /// source or be nullptr (nullptr = legacy-jitter).
  std::vector<std::shared_ptr<const PowerSource>> Powers;
  /// Sensed worlds (src/sensors/). Leave empty for the default single
  /// benchmark-scenario cell per (model, benchmark, energy, power, seed)
  /// — existing sweeps keep their shape and results. Entries may repeat
  /// a scenario or be nullptr (nullptr = the benchmark's own seeded
  /// noise).
  std::vector<std::shared_ptr<const SensorScenario>> Scenarios;
  std::vector<uint64_t> Seeds;
  /// Simulated-time budget per cell. Must be set: evaluateCells aborts on
  /// a zero budget (it would yield all-zero metrics in every cell).
  uint64_t TauBudget = 0;
  bool Monitors = true;   ///< Arm both violation detectors.
  bool Oracle = false;    ///< Score outputs with the input-epoch oracle
                          ///< (src/fusion/FusionOracle.h).

  /// Size of the power dimension (an empty Powers vector still spans one
  /// implicit legacy-jitter column).
  size_t powerCount() const { return Powers.empty() ? 1 : Powers.size(); }

  /// Size of the scenario dimension (an empty Scenarios vector still
  /// spans one implicit benchmark-default column).
  size_t scenarioCount() const {
    return Scenarios.empty() ? 1 : Scenarios.size();
  }

  size_t cellCount() const {
    return Models.size() * Benchmarks.size() * Energies.size() *
           powerCount() * scenarioCount() * Seeds.size();
  }

  /// Grid coordinates of one cell. Dimensions a sweep does not span stay
  /// 0 (aggregate initialization zero-fills the tail, so e.g.
  /// `{M, B, E, 0, 0, S}` and `{.Model = M, .Bench = B}` both work).
  struct CellCoords {
    size_t Model = 0, Bench = 0, Energy = 0, Power = 0, Scenario = 0,
           Seed = 0;
  };

  /// Flat index of cell \p C in the result vector. The inverse is
  /// cellAt(); keep the two in sync.
  size_t cellIndex(const CellCoords &C) const {
    return ((((C.Model * Benchmarks.size() + C.Bench) * Energies.size() +
              C.Energy) *
                 powerCount() +
             C.Power) *
                scenarioCount() +
            C.Scenario) *
               Seeds.size() +
           C.Seed;
  }
  /// Decodes a flat index back into CellCoords — the inverse of
  /// cellIndex().
  CellCoords cellAt(size_t I) const {
    CellCoords C{};
    C.Seed = I % Seeds.size();
    I /= Seeds.size();
    C.Scenario = I % scenarioCount();
    I /= scenarioCount();
    C.Power = I % powerCount();
    I /= powerCount();
    C.Energy = I % Energies.size();
    I /= Energies.size();
    C.Bench = I % Benchmarks.size();
    C.Model = I / Benchmarks.size();
    return C;
  }

  /// The (model, benchmark) pair index `Model * |Benchmarks| + Bench` of
  /// flat cell \p I — monotone in I, so a contiguous cell range needs a
  /// contiguous pair range.
  size_t pairOf(size_t I) const {
    CellCoords C = cellAt(I);
    return C.Model * Benchmarks.size() + C.Bench;
  }
};

/// One evaluated grid cell: the spec indices it came from plus its metrics.
struct SweepCellResult {
  size_t Model = 0;    ///< Index into SweepSpec::Models.
  size_t Bench = 0;    ///< Index into SweepSpec::Benchmarks.
  size_t Energy = 0;   ///< Index into SweepSpec::Energies.
  size_t Power = 0;    ///< Index into SweepSpec::Powers (0 when empty).
  size_t Scenario = 0; ///< Index into SweepSpec::Scenarios (0 when empty).
  size_t Seed = 0;     ///< Index into SweepSpec::Seeds.
  IntermittentMetrics Metrics;
};

/// Receives one evaluated cell: its flat index and result. Returning false
/// stops the evaluation.
using CellEmit = std::function<bool(size_t Cell, SweepCellResult &&Result)>;

/// The one grid evaluator behind SweepRunner::run and the fleet's runShard.
/// Compiles the (model, benchmark) pairs of cells [\p Begin, \p End) on
/// min(Workers, pairs) threads, then has \p Workers threads claim cells
/// and hands every result to \p Emit on the calling thread, in flat cell
/// order. Workers run at most `max(4 × Workers, 16)` cells ahead of the
/// last emitted one, so memory does not grow with the range. One worker
/// evaluates inline without starting a thread. When \p Emit returns false,
/// no further cell is claimed and every worker is joined before the call
/// returns false; otherwise it returns true. Aborts on a non-empty range
/// of a spec whose TauBudget is 0.
bool evaluateCells(const SweepSpec &Spec, size_t Begin, size_t End,
                   unsigned Workers, const CellEmit &Emit);

/// Fans a SweepSpec across a worker pool. Stateless between run() calls;
/// one runner can be reused for any number of sweeps.
class SweepRunner {
public:
  /// \p Workers = 0 picks the hardware concurrency (at least 1).
  explicit SweepRunner(unsigned Workers = 0);

  unsigned workers() const { return Workers; }

  /// Evaluates every cell of \p Spec through evaluateCells. The returned
  /// vector is in SweepSpec::cellIndex order and — for a fixed spec —
  /// identical for any worker count, including 1 (sequential).
  std::vector<SweepCellResult> run(const SweepSpec &Spec) const;

private:
  unsigned Workers;
};

/// Parses the value of a `--workers=N` flag (the text after the '=') for
/// the sweep-driven bench binaries. On success stores N in \p Workers and
/// returns true; otherwise prints an error to stderr and returns false.
bool parseWorkersFlag(const char *Value, unsigned &Workers);

/// Prints the standard `[sweep: N cells on W worker(s) in Xs]` footer —
/// to stderr, so bench stdout stays diff-stable for any worker count.
void printSweepTiming(size_t Cells, unsigned Workers, double Seconds);

} // namespace ocelot

#endif // OCELOT_HARNESS_SWEEPRUNNER_H
