//===- SweepRunnerTest.cpp - Parallel sweep determinism -------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SweepRunner contract: a sweep's result depends only on the spec,
/// never on the worker count or scheduling. A parallel run must match the
/// sequential run bitwise, and both must match what a hand-rolled loop over
/// measureIntermittent produces. `evaluateCells`, the evaluator behind both
/// SweepRunner::run and the fleet's runShard, emits in cell order and stops
/// cleanly when its consumer does.
///
//===----------------------------------------------------------------------===//

#include "harness/SweepRunner.h"
#include "power/PowerProfiles.h"
#include "sensors/SensorScenarios.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

using namespace ocelot;

namespace {

SweepSpec smallGrid() {
  SweepSpec Spec;
  Spec.Benchmarks = {findBenchmark("greenhouse"), findBenchmark("cem")};
  Spec.Models = {ExecModel::Ocelot, ExecModel::JitOnly};
  EnergyConfig Small;
  Small.CapacityCycles = 1400;
  Small.ReserveCycles = 350;
  Spec.Energies = {EnergyConfig{}, Small};
  Spec.Seeds = {1, 4242};
  Spec.TauBudget = 2'000'000;
  Spec.Monitors = true;
  return Spec;
}

/// Bitwise comparison of every metric field, including the doubles: the
/// per-cell arithmetic is identical on every path, so even the floating
/// point results must match exactly.
void expectIdentical(const std::vector<SweepCellResult> &A,
                     const std::vector<SweepCellResult> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Model, B[I].Model) << "cell " << I;
    EXPECT_EQ(A[I].Bench, B[I].Bench) << "cell " << I;
    EXPECT_EQ(A[I].Energy, B[I].Energy) << "cell " << I;
    EXPECT_EQ(A[I].Power, B[I].Power) << "cell " << I;
    EXPECT_EQ(A[I].Scenario, B[I].Scenario) << "cell " << I;
    EXPECT_EQ(A[I].Seed, B[I].Seed) << "cell " << I;
    const IntermittentMetrics &M = A[I].Metrics, &N = B[I].Metrics;
    EXPECT_EQ(M.CompletedRuns, N.CompletedRuns) << "cell " << I;
    EXPECT_EQ(M.ViolatingRuns, N.ViolatingRuns) << "cell " << I;
    EXPECT_EQ(M.Starved, N.Starved) << "cell " << I;
    EXPECT_EQ(M.Trapped, N.Trapped) << "cell " << I;
    EXPECT_EQ(M.Trap, N.Trap) << "cell " << I;
    EXPECT_EQ(M.OnCyclesPerRun, N.OnCyclesPerRun) << "cell " << I;
    EXPECT_EQ(M.OffCyclesPerRun, N.OffCyclesPerRun) << "cell " << I;
    EXPECT_EQ(M.RebootsPerRun, N.RebootsPerRun) << "cell " << I;
  }
}

TEST(SweepRunner, ParallelMatchesSequentialBitwise) {
  SweepSpec Spec = smallGrid();
  std::vector<SweepCellResult> Sequential = SweepRunner(1).run(Spec);
  std::vector<SweepCellResult> Parallel = SweepRunner(4).run(Spec);
  expectIdentical(Sequential, Parallel);
  // And re-running in parallel is just as deterministic.
  expectIdentical(Parallel, SweepRunner(4).run(Spec));
}

TEST(SweepRunner, MatchesHandRolledSequentialLoop) {
  SweepSpec Spec = smallGrid();
  std::vector<SweepCellResult> Swept = SweepRunner(4).run(Spec);
  ASSERT_EQ(Swept.size(), Spec.cellCount());
  for (size_t M = 0; M < Spec.Models.size(); ++M)
    for (size_t B = 0; B < Spec.Benchmarks.size(); ++B) {
      CompiledBenchmark CB =
          compileBenchmark(*Spec.Benchmarks[B], Spec.Models[M]);
      for (size_t E = 0; E < Spec.Energies.size(); ++E)
        for (size_t S = 0; S < Spec.Seeds.size(); ++S) {
          IntermittentMetrics Want = measureIntermittent(
              CB, *Spec.Benchmarks[B],
              {.Energy = Spec.Energies[E],
               .TauBudget = Spec.TauBudget,
               .Seed = Spec.Seeds[S],
               .Monitors = Spec.Monitors});
          const SweepCellResult &Got =
              Swept[Spec.cellIndex({.Model = M, .Bench = B, .Energy = E,
                                    .Seed = S})];
          EXPECT_EQ(Got.Model, M);
          EXPECT_EQ(Got.Bench, B);
          EXPECT_EQ(Got.Energy, E);
          EXPECT_EQ(Got.Seed, S);
          EXPECT_EQ(Got.Metrics.CompletedRuns, Want.CompletedRuns);
          EXPECT_EQ(Got.Metrics.ViolatingRuns, Want.ViolatingRuns);
          EXPECT_EQ(Got.Metrics.OnCyclesPerRun, Want.OnCyclesPerRun);
          EXPECT_EQ(Got.Metrics.OffCyclesPerRun, Want.OffCyclesPerRun);
          EXPECT_EQ(Got.Metrics.RebootsPerRun, Want.RebootsPerRun);
          EXPECT_EQ(Got.Metrics.Starved, Want.Starved);
        }
    }
}

TEST(SweepRunner, PowerDimensionSweepsAndAttributesCorrectly) {
  // Non-empty Powers: the grid grows a power dimension, the parallel run
  // still matches the sequential one bitwise, and every cell's metrics
  // match a hand-rolled measureIntermittent with *that* cell's source —
  // i.e. cellIndex/cellAt stay in sync and no cell is mis-attributed.
  SweepSpec Spec;
  Spec.Benchmarks = {findBenchmark("greenhouse")};
  Spec.Models = {ExecModel::Ocelot, ExecModel::JitOnly};
  Spec.Energies = {EnergyConfig{}};
  Spec.Powers = {nullptr, // Implicit legacy-jitter.
                 PowerProfileRegistry::global().create("bench-constant"),
                 PowerProfileRegistry::global().create("rf-office")};
  Spec.Seeds = {1, 77};
  Spec.TauBudget = 1'500'000;
  EXPECT_EQ(Spec.powerCount(), 3u);
  EXPECT_EQ(Spec.cellCount(), 2u * 1u * 1u * 3u * 2u);

  std::vector<SweepCellResult> Sequential = SweepRunner(1).run(Spec);
  std::vector<SweepCellResult> Parallel = SweepRunner(4).run(Spec);
  expectIdentical(Sequential, Parallel);

  for (size_t M = 0; M < Spec.Models.size(); ++M) {
    CompiledBenchmark CB =
        compileBenchmark(*Spec.Benchmarks[0], Spec.Models[M]);
    for (size_t P = 0; P < Spec.Powers.size(); ++P)
      for (size_t S = 0; S < Spec.Seeds.size(); ++S) {
        size_t I = Spec.cellIndex({.Model = M, .Power = P, .Seed = S});
        SweepSpec::CellCoords C = Spec.cellAt(I);
        EXPECT_EQ(C.Model, M);
        EXPECT_EQ(C.Power, P);
        EXPECT_EQ(C.Seed, S);
        const SweepCellResult &Got = Parallel[I];
        EXPECT_EQ(Got.Power, P);
        IntermittentMetrics Want = measureIntermittent(
            CB, *Spec.Benchmarks[0],
            {.Energy = Spec.Energies[0],
             .TauBudget = Spec.TauBudget,
             .Seed = Spec.Seeds[S],
             .Monitors = Spec.Monitors,
             .Power = Spec.Powers[P]});
        EXPECT_EQ(Got.Metrics.CompletedRuns, Want.CompletedRuns);
        EXPECT_EQ(Got.Metrics.OffCyclesPerRun, Want.OffCyclesPerRun)
            << "cell " << I << " got another profile's off-times";
        EXPECT_EQ(Got.Metrics.RebootsPerRun, Want.RebootsPerRun);
      }
  }
  // The profiles must actually differ observably for the attribution
  // check above to mean anything: legacy-jitter vs rf-office off-times.
  EXPECT_NE(Parallel[Spec.cellIndex({.Power = 0})].Metrics.OffCyclesPerRun,
            Parallel[Spec.cellIndex({.Power = 2})].Metrics.OffCyclesPerRun);
}

TEST(SweepRunner, ScenarioDimensionSweepsAndAttributesCorrectly) {
  // Non-empty Scenarios (combined with a power column): the grid grows a
  // scenario dimension between power and seed, the parallel run matches
  // the sequential one bitwise, and every cell's metrics match a
  // hand-rolled measureIntermittent with *that* cell's scenario — i.e.
  // cellIndex(CellCoords) and cellAt stay in sync and no cell reads
  // another world's inputs.
  SweepSpec Spec;
  Spec.Benchmarks = {findBenchmark("send_photo")};
  Spec.Models = {ExecModel::JitOnly};
  Spec.Energies = {EnergyConfig{}};
  Spec.Powers = {nullptr,
                 PowerProfileRegistry::global().create("bench-constant")};
  Spec.Scenarios = {nullptr, // Implicit benchmark default.
                    SensorScenarioRegistry::global().create("steady-lab"),
                    SensorScenarioRegistry::global().create("quake-bursts")};
  Spec.Seeds = {1, 77};
  Spec.TauBudget = 1'500'000;
  EXPECT_EQ(Spec.scenarioCount(), 3u);
  EXPECT_EQ(Spec.cellCount(), 1u * 1u * 1u * 2u * 3u * 2u);

  std::vector<SweepCellResult> Sequential = SweepRunner(1).run(Spec);
  std::vector<SweepCellResult> Parallel = SweepRunner(4).run(Spec);
  expectIdentical(Sequential, Parallel);

  CompiledBenchmark CB =
      compileBenchmark(*Spec.Benchmarks[0], Spec.Models[0]);
  for (size_t P = 0; P < Spec.Powers.size(); ++P)
    for (size_t Sc = 0; Sc < Spec.Scenarios.size(); ++Sc)
      for (size_t S = 0; S < Spec.Seeds.size(); ++S) {
        size_t I =
            Spec.cellIndex({.Power = P, .Scenario = Sc, .Seed = S});
        SweepSpec::CellCoords C = Spec.cellAt(I);
        EXPECT_EQ(C.Power, P);
        EXPECT_EQ(C.Scenario, Sc);
        EXPECT_EQ(C.Seed, S);
        const SweepCellResult &Got = Parallel[I];
        EXPECT_EQ(Got.Power, P);
        EXPECT_EQ(Got.Scenario, Sc);
        IntermittentMetrics Want = measureIntermittent(
            CB, *Spec.Benchmarks[0],
            {.Energy = Spec.Energies[0],
             .TauBudget = Spec.TauBudget,
             .Seed = Spec.Seeds[S],
             .Monitors = Spec.Monitors,
             .Power = Spec.Powers[P],
             .Sensors = Spec.Scenarios[Sc]});
        EXPECT_EQ(Got.Metrics.CompletedRuns, Want.CompletedRuns)
            << "cell " << I;
        EXPECT_EQ(Got.Metrics.ViolatingRuns, Want.ViolatingRuns)
            << "cell " << I << " got another scenario's inputs";
        EXPECT_EQ(Got.Metrics.OnCyclesPerRun, Want.OnCyclesPerRun)
            << "cell " << I;
      }
  // The scenarios must differ observably for the attribution check to
  // mean anything: send_photo's conditional send makes its on-time track
  // the input world (frozen steady-lab vs bursty quake-bursts).
  EXPECT_NE(Parallel[Spec.cellIndex({.Scenario = 1})].Metrics.OnCyclesPerRun,
            Parallel[Spec.cellIndex({.Scenario = 2})].Metrics.OnCyclesPerRun);
}

TEST(SweepRunner, DefaultsToHardwareConcurrency) {
  EXPECT_GE(SweepRunner().workers(), 1u);
  EXPECT_EQ(SweepRunner(3).workers(), 3u);
}

TEST(SweepRunner, WorkersFlagRejectsValuesThatDoNotFit) {
  // Parsing only: no runner is built, so no thread starts.
  unsigned Workers = 7;
  EXPECT_TRUE(parseWorkersFlag("2", Workers));
  EXPECT_EQ(Workers, 2u);
  // 2^32 + 1 used to truncate to one worker.
  for (const char *Bad : {"4294967297", "0", "-1", "", "+2", "2x", " 2"})
    EXPECT_FALSE(parseWorkersFlag(Bad, Workers)) << Bad;
  EXPECT_EQ(Workers, 2u);
}

TEST(SweepRunner, EmptySpecYieldsNoCells) {
  SweepSpec Spec;
  EXPECT_EQ(Spec.cellCount(), 0u);
  EXPECT_TRUE(SweepRunner(4).run(Spec).empty());
}

TEST(SweepRunner, OneArtifactBacksManyCells) {
  // More workers than cells and more cells than artifacts: the shared
  // immutable artifacts must serve all cells without interference — every
  // seed's cells agree across models' compilations of the same benchmark.
  SweepSpec Spec = smallGrid();
  std::vector<SweepCellResult> R = SweepRunner(16).run(Spec);
  // Ocelot never violates; JIT-only cells are free to (Table 2(b)).
  for (size_t B = 0; B < Spec.Benchmarks.size(); ++B)
    for (size_t E = 0; E < Spec.Energies.size(); ++E)
      for (size_t S = 0; S < Spec.Seeds.size(); ++S)
        EXPECT_EQ(R[Spec.cellIndex({.Bench = B, .Energy = E, .Seed = S})]
                      .Metrics.ViolatingRuns,
                  0u)
            << Spec.Benchmarks[B]->Name;
}

TEST(EvaluateCells, EmitsInCellOrderForAnyWorkerCount) {
  // A range that starts mid-grid (second model's first benchmark) and
  // spans two (model, benchmark) pairs.
  SweepSpec Spec = smallGrid();
  const size_t Begin = 9, End = Spec.cellCount() - 2;
  std::vector<SweepCellResult> All = SweepRunner(1).run(Spec);
  std::vector<size_t> Want;
  for (size_t I = Begin; I < End; ++I)
    Want.push_back(I);
  for (unsigned W = 1; W <= 4; ++W) {
    std::vector<size_t> Order;
    std::vector<SweepCellResult> Got;
    EXPECT_TRUE(evaluateCells(Spec, Begin, End, W,
                              [&](size_t I, SweepCellResult &&R) {
                                Order.push_back(I);
                                Got.push_back(std::move(R));
                                return true;
                              }));
    EXPECT_EQ(Order, Want) << W << " worker(s)";
    expectIdentical(Got, std::vector<SweepCellResult>(All.begin() + Begin,
                                                      All.begin() + End));
  }
}

/// A constant-rate supply that counts its recharges: with every cell of a
/// grid identical, the count says how many cells were evaluated.
class CountingSource : public PowerSource {
public:
  const char *name() const override { return "counting"; }
  RechargePlan planRecharge(uint64_t Tau, uint64_t Stored,
                            const EnergyConfig &Cfg, Rng &R) const override {
    ++Recharges;
    return Inner->planRecharge(Tau, Stored, Cfg, R);
  }
  mutable std::atomic<uint64_t> Recharges{0};

private:
  std::shared_ptr<const PowerSource> Inner = constantSource();
};

size_t threadCount() {
  size_t N = 0;
  for ([[maybe_unused]] auto &E :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++N;
  return N;
}

TEST(EvaluateCells, EmitReturningFalseStopsAndJoinsEveryWorker) {
  auto Source = std::make_shared<CountingSource>();
  SweepSpec Spec;
  Spec.Benchmarks = {findBenchmark("greenhouse")};
  Spec.Models = {ExecModel::Ocelot};
  EnergyConfig Small;
  Small.CapacityCycles = 1400;
  Small.ReserveCycles = 350;
  Spec.Energies = {Small};
  Spec.Powers = {Source};
  Spec.Seeds.assign(400, 3); // 400 identical cells.
  Spec.TauBudget = 400'000;

  ASSERT_TRUE(evaluateCells(Spec, 0, 1, 1,
                            [](size_t, SweepCellResult &&) { return true; }));
  const uint64_t PerCell = Source->Recharges.exchange(0);
  ASSERT_GT(PerCell, 0u) << "cells must reboot for the count to work";

  const bool CanCountThreads = std::filesystem::exists("/proc/self/task");
  const size_t ThreadsBefore = CanCountThreads ? threadCount() : 0;
  const size_t K = 5;
  std::vector<size_t> Order;
  EXPECT_FALSE(evaluateCells(Spec, 0, Spec.cellCount(), 3,
                             [&](size_t I, SweepCellResult &&) {
                               // A slow consumer: workers would run far
                               // ahead of it if nothing bounded them.
                               std::this_thread::sleep_for(
                                   std::chrono::milliseconds(2));
                               Order.push_back(I);
                               return I != K;
                             }));
  EXPECT_EQ(Order, (std::vector<size_t>{0, 1, 2, 3, 4, 5}));
  // Prompt: workers never run a reorder window (16 cells for 3 workers)
  // past the last emitted cell, so the other ~380 cells never start.
  const uint64_t Recharges = Source->Recharges.load();
  EXPECT_EQ(Recharges % PerCell, 0u);
  EXPECT_LE(Recharges / PerCell, K + 1 + 16);
  // Every worker is joined: nothing evaluates after the return, and the
  // process is back to its thread count.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(Source->Recharges.load(), Recharges);
  if (CanCountThreads) {
    EXPECT_EQ(threadCount(), ThreadsBefore);
  }
}

TEST(EvaluateCells, EmptyRangeEmitsNothing) {
  SweepSpec Spec = smallGrid();
  Spec.TauBudget = 0; // Would abort if the range had a cell.
  for (unsigned W : {1u, 3u}) {
    EXPECT_TRUE(evaluateCells(Spec, 7, 7, W, [](size_t, SweepCellResult &&) {
      ADD_FAILURE() << "emitted a cell of an empty range";
      return true;
    }));
  }
}

} // namespace
