//===- Workloads.h - The benchmark's four paper-shaped grids ----*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload is one evaluation grid the paper's tables (or a fleet
/// sweep) really run, described by names so that it can become either a
/// `SweepSpec` or a fleet `FleetSpec`. The grid's seeds come from the
/// benchmark's `--seed`; every workload's default seed is its table's.
///
/// A cell's *record* is the deterministic part of its result (completed
/// and violating runs, reboots per run, the oracle counts, the trap and
/// starved flags) as one text line — what the output check compares.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "fleet/FleetSpec.h"
#include "harness/SweepRunner.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A grid by name: benchmarks, exec models, sensor scenarios ("default"
/// is the benchmark's own world) and seeds; one default energy config and
/// the legacy-jitter power source.
struct Grid {
  std::vector<std::string> Benchmarks;
  std::vector<ocelot::ExecModel> Models;
  std::vector<std::string> Scenarios;
  std::vector<uint64_t> Seeds;
  uint64_t TauBudget = 0;
  bool Monitors = true;
  bool Oracle = false;

  size_t cells() const {
    return Benchmarks.size() * Models.size() * Scenarios.size() *
           Seeds.size();
  }
  /// Aborts on an unknown name (the workloads are fixed).
  ocelot::SweepSpec sweepSpec() const;
  ocelot::FleetSpec fleetSpec() const;
};

struct Workload {
  const char *Name;
  uint64_t DefaultSeed;
  /// Sweep worker threads (capped at the host's hardware concurrency).
  unsigned Workers;
  /// The timed phase runs the grid through runShard x2 + mergeShards
  /// instead of SweepRunner::run.
  bool Sharded;
  Grid (*Make)(uint64_t Seed);
};

const std::vector<Workload> &workloads();
const Workload *findWorkload(const std::string &Name);

/// Shards and checkpoint cadence of the fleet layer.
constexpr unsigned FleetShards = 2;
constexpr size_t FleetCheckpointEvery = 256;

/// The source text and options the harness compiles \p B under \p Model
/// with (the Atomics-only build takes the manually regioned source).
const char *sourceFor(const ocelot::BenchmarkDef &B, ocelot::ExecModel M);
ocelot::CompileOptions optionsFor(ocelot::ExecModel M);

/// The deterministic record of one cell.
std::string cellRecord(const ocelot::IntermittentMetrics &M);

/// Records of a sweep result, in cell order.
std::vector<std::string>
cellRecords(const std::vector<ocelot::SweepCellResult> &Cells);

/// Everything one cell's runs produced, summed over RunResults.
struct CellCounts {
  uint64_t Steps = 0, Reboots = 0, Checkpoints = 0, UndoLogEntries = 0,
           AtomicCommits = 0, AtomicAborts = 0, Violations = 0,
           OracleOutputs = 0;
};

/// Re-evaluates flat cell \p I of \p Spec with `Simulation::runOnce` on
/// \p Engine, following the harness's intermittent protocol (energy-driven
/// failures until the tau budget, stop at the first starved or trapped
/// run). \returns the cell's record; adds the RunResult sums to \p Counts.
std::string replayCell(const ocelot::SweepSpec &Spec, size_t I,
                       const ocelot::CompiledArtifact &A,
                       ocelot::DispatchEngine Engine, CellCounts &Counts);

/// Committed expected records: `<dir>/<workload>.txt`, one record per
/// cell of the workload's default-seed grid. Returns false when absent.
bool readExpected(const std::string &Path, std::vector<std::string> &Out);
bool writeExpected(const std::string &Path, const std::string &Workload,
                   uint64_t Seed, const std::vector<std::string> &Records);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
