//===- Driver.h - One benchmark run: set-up, timed phase, checks -*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A run measures one workload in its own process. The untraced run (the
/// end-to-end numbers) has a set-up phase, a timed phase and an output
/// check; the traced run (Layers.cpp) times each layer's public entry
/// points from outside and reports the per-layer numbers.
///
/// The timed path calls only `Toolchain::compileCached`/`clearCache`,
/// `SweepRunner::run`, `runShard` and `mergeShards`.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_DRIVER_H
#define PERFBENCH_DRIVER_H

#include "HostProbe.h"
#include "Spans.h"
#include "Workloads.h"

#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct RunContext {
  const Workload *W = nullptr;
  uint64_t Seed = 0;
  double Seconds = 10;
  unsigned Workers = 1;  ///< W->Workers capped at the hardware concurrency.
  std::string WorkDir;   ///< Scratch space for shard files and traces.
  std::string Expected;  ///< The workload's committed expected records.
  std::string TracePath; ///< Where the traced run writes its Chrome trace.
  Grid G;
  ocelot::SweepSpec Spec;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  /// Counts \p Attempted cell evaluations and the \p Failed among them.
  void check(uint64_t Attempted, uint64_t Failed) {
    this->Attempted += Attempted;
    this->Failed += Failed;
  }
};

/// The \p Q quantile of \p V (linear interpolation; 0 for an empty V).
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

/// The quantile of a run's repeated timings that the timed-phase metrics
/// report (see runUntraced).
constexpr double FastQuantile = 0.1;


/// Clears the artifact cache and cold-compiles every (model, benchmark)
/// pair of the grid the way `SweepRunner::run` does: pairs claimed in
/// cell order by min(\p Workers, pairs) threads, inline for one. When
/// \p Rec is set, each compile gets an `ocelot.compile` span under
/// \p Parent; \p PerPair, when set, runs after each compile on the
/// compiling thread (the traced run's pass replay, with one worker).
/// \returns the wall seconds, or a negative value if a compile failed.
using PairHook =
    std::function<void(const ocelot::BenchmarkDef &, ocelot::ExecModel,
                       const ocelot::CompiledArtifact &)>;
double compileAll(const RunContext &C, unsigned Workers,
                  SpanRecorder *Rec = nullptr, int Parent = -1,
                  const PairHook &PerPair = {});

/// The cached artifact of pair (\p Model, \p Bench) indices of the spec.
ocelot::CompiledArtifact artifactFor(const RunContext &C, size_t Model,
                                     size_t Bench);

/// One evaluation of the workload's grid the way its real driver runs
/// it: `SweepRunner::run`, or two `runShard`s plus `mergeShards` into a
/// fresh directory under WorkDir.
struct UnitResult {
  double Seconds = 0;
  bool Ok = true;
  std::string Error;
  std::vector<std::string> Records; ///< In cell order.
};
UnitResult runUnit(const RunContext &C);

/// Runs two shards of \p Fleet and merges them in \p Dir (recreated).
/// Spans go under \p Parent when \p Rec is set. On success fills
/// \p Records from the merged file and \p ShardSec / \p MergeSec. When
/// \p ManifestCommits is set, it receives the shard manifests the shards
/// committed, counted by watching \p Dir (-1 when the watch is not
/// available).
bool runFleet(const ocelot::FleetSpec &Fleet, const std::string &Dir,
              SpanRecorder *Rec, int Parent, double &ShardSec,
              double &MergeSec, std::vector<std::string> &Records,
              std::string &Error, int64_t *ManifestCommits = nullptr);

/// Number of cells whose records differ (a length mismatch counts every
/// missing or extra cell).
uint64_t countMismatches(const std::vector<std::string> &Got,
                         const std::vector<std::string> &Want);

/// The untraced run: end-to-end metrics and the output check.
bool runUntraced(const RunContext &C, Outcome &Out);

/// The traced run: per-layer metrics (Layers.cpp).
bool runTraced(const RunContext &C, Outcome &Out);

} // namespace perfbench

#endif // PERFBENCH_DRIVER_H
