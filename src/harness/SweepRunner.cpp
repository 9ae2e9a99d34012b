//===- SweepRunner.cpp - Parallel evaluation-grid driver --------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/SweepRunner.h"
#include "support/ParseNumber.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

using namespace ocelot;

namespace {

/// Runs copies of \p Body on min(Workers, Items) threads; with one worker
/// it runs inline, so a single-worker sweep really is the sequential path.
template <typename Fn> void runOnPool(unsigned Workers, size_t Items, Fn Body) {
  size_t NThreads = std::min<size_t>(Workers, Items);
  if (NThreads <= 1) {
    Body();
    return;
  }
  std::vector<std::thread> Pool;
  Pool.reserve(NThreads);
  for (size_t T = 0; T < NThreads; ++T)
    Pool.emplace_back(Body);
  for (std::thread &Th : Pool)
    Th.join();
}

} // namespace

bool ocelot::parseWorkersFlag(const char *Value, unsigned &Workers) {
  unsigned V = 0;
  if (!parseUnsigned(Value, V) || V < 1) {
    std::fprintf(stderr, "error: bad worker count '%s' (want >= 1)\n", Value);
    return false;
  }
  Workers = V;
  return true;
}

void ocelot::printSweepTiming(size_t Cells, unsigned Workers,
                              double Seconds) {
  std::fprintf(stderr, "[sweep: %zu cells on %u worker(s) in %.2fs]\n",
               Cells, Workers, Seconds);
}

SweepCellResult ocelot::evaluateSweepCell(const SweepSpec &Spec, size_t I,
                                          const CompiledBenchmark &CB,
                                          std::shared_ptr<ArenaPool> Arena) {
  SweepCellResult R;
  SweepSpec::CellCoords C = Spec.cellAt(I);
  R.Model = C.Model;
  R.Bench = C.Bench;
  R.Energy = C.Energy;
  R.Power = C.Power;
  R.Scenario = C.Scenario;
  R.Seed = C.Seed;
  R.Metrics = measureIntermittent(
      CB, *Spec.Benchmarks[R.Bench], Spec.Energies[R.Energy], Spec.TauBudget,
      Spec.Seeds[R.Seed], Spec.Monitors,
      Spec.Powers.empty() ? nullptr : Spec.Powers[R.Power],
      Spec.Scenarios.empty() ? nullptr : Spec.Scenarios[R.Scenario],
      std::move(Arena), Spec.Oracle);
  return R;
}

SweepRunner::SweepRunner(unsigned Workers) : Workers(Workers) {
  if (this->Workers == 0) {
    unsigned HW = std::thread::hardware_concurrency();
    this->Workers = HW ? HW : 1;
  }
}

std::vector<SweepCellResult> SweepRunner::run(const SweepSpec &Spec) const {
  const size_t NB = Spec.Benchmarks.size();
  const size_t N = Spec.cellCount();
  std::vector<SweepCellResult> Results(N);
  if (N == 0)
    return Results;
  if (Spec.TauBudget == 0) {
    // A zero budget would "succeed" with all-zero metrics in every cell —
    // reject the spec loudly instead (harness style: misuse aborts).
    std::fprintf(stderr, "SweepRunner: SweepSpec::TauBudget is 0; every "
                         "cell would complete zero runs\n");
    std::abort();
  }

  // Compile each (model, benchmark) pair exactly once. The artifacts are
  // immutable, so every cell that shares a pair shares the compilation.
  std::vector<CompiledBenchmark> Artifacts(Spec.Models.size() * NB);
  {
    std::atomic<size_t> Next{0};
    auto CompileWorker = [&] {
      for (size_t I = Next.fetch_add(1); I < Artifacts.size();
           I = Next.fetch_add(1))
        Artifacts[I] = compileBenchmark(*Spec.Benchmarks[I % NB],
                                        Spec.Models[I / NB]);
    };
    runOnPool(Workers, Artifacts.size(), CompileWorker);
  }

  // Evaluate the cells. Each cell's Simulation is seeded purely from the
  // spec, and each worker writes only its own pre-sized slot, so the result
  // does not depend on scheduling.
  {
    std::atomic<size_t> Next{0};
    auto CellWorker = [&] {
      for (size_t I = Next.fetch_add(1); I < N; I = Next.fetch_add(1))
        Results[I] = evaluateSweepCell(Spec, I, Artifacts[Spec.pairOf(I)]);
    };
    runOnPool(Workers, N, CellWorker);
  }

  return Results;
}
