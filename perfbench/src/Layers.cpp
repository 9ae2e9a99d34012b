//===- Layers.cpp - The traced run: per-layer numbers from outside ---------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Times each layer through its public entry points, with a span around
/// every call, and derives the layer numbers from the spans' self times:
///
///  * compile: the pipeline of `Toolchain::compile` replayed pass by pass
///    (parse, sema, lower, verify, call graph, taint, policies, regions,
///    WAR) plus `ExecutableImage::build`, next to the real compile total;
///  * runtime: a configuration ladder over `Simulation::runOnce` (Hot,
///    +energy, +bit-vector, +formal/taint, +oracle), each rung's cost
///    reported as its marginal ns per simulated step, and the
///    deterministic RunResult counts of every grid cell;
///  * harness: each cell as its own `SweepRunner::run`, on the workload's
///    worker count;
///  * fleet: the grid through two `runShard`s and `mergeShards`, against
///    the in-memory evaluation of the same cells.
///
//===----------------------------------------------------------------------===//

#include "Driver.h"

#include "frontend/Lowering.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "ir/IRVerifier.h"
#include "ocelot/PolicyBuilder.h"
#include "ocelot/RegionChecker.h"
#include "runtime/Simulation.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>

using namespace ocelot;
using namespace perfbench;

namespace fs = std::filesystem;

namespace {

/// Compile-layer spans and the per-layer metric each one feeds.
const std::pair<const char *, const char *> CompileLayers[] = {
    {"frontend.parse", "frontend.parse_ms"},
    {"frontend.sema", "frontend.sema_ms"},
    {"frontend.lower", "frontend.lower_ms"},
    {"ir.verify", "ir.verify_ms"},
    {"analysis.callgraph", "analysis.callgraph_ms"},
    {"analysis.taint", "analysis.taint_ms"},
    {"ocelot.policies", "ocelot.policies_ms"},
    {"ocelot.regions", "ocelot.regions_ms"},
    {"analysis.war", "analysis.war_ms"},
    {"runtime.image_build", "runtime.image_build_ms"},
    {"ocelot.compile", "ocelot.compile_ms"},
};

/// The runtime configuration ladder; each rung adds one layer.
const char *const Rungs[] = {"runtime.dispatch", "runtime.energy",
                             "runtime.bitvector", "runtime.taint",
                             "fusion.oracle"};
constexpr size_t NumRungs = sizeof(Rungs) / sizeof(Rungs[0]);

/// Simulated steps each (pair, rung) runs per ladder repetition.
constexpr uint64_t LadderSteps = 400'000;

/// Repetitions of each traced step; medians are reported.
constexpr int Reps = 3;

size_t instructionCount(const Program &P) {
  size_t N = 0;
  for (int F = 0; F < P.numFunctions(); ++F)
    for (int B = 0; B < P.function(F)->numBlocks(); ++B)
      N += P.function(F)->block(B)->instructions().size();
  return N;
}

/// Replays `Toolchain::compile`'s pipeline for one pair, one span per
/// pass, then builds the artifact's image again under its own span.
/// \returns false when the replay does not reproduce the artifact (the
/// pipeline changed and this replay no longer measures it).
bool replayPasses(const BenchmarkDef &B, ExecModel Model,
                  const CompiledArtifact &A, SpanRecorder &Rec, int Parent) {
  auto Timed = [&](const char *Name, auto &&Fn) {
    ScopedSpan S(Rec, Name, Parent);
    return Fn();
  };
  DiagnosticEngine Diags;
  CompileOptions Opts = optionsFor(Model);
  std::string Src = sourceFor(B, Model);

  std::unique_ptr<Module> M =
      Timed("frontend.parse", [&] { return Parser::parseSource(Src, Diags); });
  if (Diags.hasErrors() ||
      !Timed("frontend.sema", [&] { return checkModule(*M, Diags); }))
    return false;
  std::unique_ptr<Program> P =
      Timed("frontend.lower", [&] { return lowerModule(*M, Diags); });
  if (!P || (Opts.Verify &&
             !Timed("ir.verify", [&] { return verifyProgram(*P, Diags); })))
    return false;
  std::optional<CallGraph> CG;
  Timed("analysis.callgraph", [&] { CG.emplace(*P); });
  std::optional<TaintAnalysis> TA;
  Timed("analysis.taint", [&] { TA.emplace(*P, *CG); });
  PolicySet PS = Timed("ocelot.policies", [&] {
    return buildPolicies(*P, *CG, *TA, Diags);
  });
  if (Diags.hasErrors())
    return false;
  Timed("ocelot.regions", [&] {
    if (Model == ExecModel::Ocelot) {
      inferAtomicRegions(*P, *TA, PS, Diags);
    } else if (Model == ExecModel::JitOnly) {
      for (int F = 0; F < P->numFunctions(); ++F)
        for (int Bl = 0; Bl < P->function(F)->numBlocks(); ++Bl)
          std::erase_if(P->function(F)->block(Bl)->instructions(),
                        [](const Instruction &I) { return I.isRegionBound(); });
    }
  });
  if (Diags.hasErrors() ||
      (Opts.Verify &&
       !Timed("ir.verify", [&] { return verifyProgram(*P, Diags); })))
    return false;
  if (Model == ExecModel::Ocelot && Opts.SelfCheck &&
      !Timed("ocelot.regions",
             [&] { return checkRegionPlacement(*P, *TA, PS, Diags); }))
    return false;
  std::optional<WarAnalysis> WA;
  Timed("analysis.war", [&] { WA.emplace(*P, *CG); });

  auto Image = Timed("runtime.image_build", [&] {
    return ExecutableImage::build(A.program(), &A.regions(), &A.monitorPlan());
  });

  return instructionCount(*P) == instructionCount(A.program()) &&
         PS.Fresh.size() == A.policies().Fresh.size() &&
         PS.Consistent.size() == A.policies().Consistent.size() &&
         WA->regions().size() == A.regions().size() &&
         Image->size() == A.image().size();
}

/// Ladder rung \p Rung's configuration for one pair.
RunConfig rungConfig(const SweepSpec &Spec, size_t Bench, size_t Rung) {
  const BenchmarkDef &B = *Spec.Benchmarks[Bench];
  RunConfig Cfg;
  Cfg.Seed = Spec.Seeds.front();
  auto World = Spec.Scenarios.empty() ? nullptr : Spec.Scenarios.front();
  Cfg.Sensors = World ? World : B.scenario(Cfg.Seed);
  if (Rung >= 1) {
    Cfg.Plan = FailurePlan::energyDriven();
    Cfg.Energy = Spec.Energies.front();
    Cfg.Power = Spec.Powers.empty() ? nullptr : Spec.Powers.front();
  }
  Cfg.MonitorBitVector = Rung >= 2;
  Cfg.MonitorFormal = Rung >= 3;
  Cfg.Oracle = Rung >= 4;
  return Cfg;
}

/// One cell of \p Spec as a sweep of its own.
SweepSpec singleCell(const SweepSpec &Spec, size_t I) {
  SweepSpec::CellCoords X = Spec.cellAt(I);
  SweepSpec S;
  S.Benchmarks = {Spec.Benchmarks[X.Bench]};
  S.Models = {Spec.Models[X.Model]};
  S.Energies = {Spec.Energies[X.Energy]};
  if (!Spec.Powers.empty())
    S.Powers = {Spec.Powers[X.Power]};
  if (!Spec.Scenarios.empty())
    S.Scenarios = {Spec.Scenarios[X.Scenario]};
  S.Seeds = {Spec.Seeds[X.Seed]};
  S.TauBudget = Spec.TauBudget;
  S.Monitors = Spec.Monitors;
  S.Oracle = Spec.Oracle;
  return S;
}

uint64_t directoryBytes(const std::string &Dir) {
  uint64_t Bytes = 0;
  std::error_code EC;
  for (const auto &E : fs::recursive_directory_iterator(Dir, EC))
    if (E.is_regular_file(EC))
      Bytes += E.file_size(EC);
  return Bytes;
}

} // namespace

bool perfbench::runTraced(const RunContext &C, Outcome &Out) {
  SpanRecorder Rec;
  const int RunId = Rec.open("perfbench.traced_run", -1);
  const size_t Cells = C.G.cells();

  // -- Compile layers: cold set-up with the pass replay beside it. --------
  uint64_t ReplayDiverged = 0;
  {
    ScopedSpan Setup(Rec, "setup", RunId);
    for (int R = 0; R < Reps; ++R) {
      ScopedSpan Rep(Rec, "setup.rep", Setup.id());
      auto Replay = [&](const BenchmarkDef &B, ExecModel M,
                        const CompiledArtifact &A) {
        if (!replayPasses(B, M, A, Rec, Rep.id())) {
          std::fprintf(stderr,
                       "perfbench: pass replay of %s under %s does not "
                       "reproduce Toolchain::compile\n",
                       B.Name.c_str(), execModelName(M));
          ++ReplayDiverged;
        }
      };
      // One worker, so no compile contends with the replay it times.
      if (compileAll(C, 1, &Rec, Rep.id(), Replay) < 0)
        return false;
    }
  }
  Out.check(Reps * C.Spec.Models.size() * C.Spec.Benchmarks.size(),
            ReplayDiverged);

  // -- The workload's own grid evaluation, untraced: the reference for
  // every traced step and the base of the tracing overhead. ---------------
  std::vector<double> UnitWalls;
  std::vector<std::string> Want;
  std::vector<std::string> Expected;
  if (C.Seed == C.W->DefaultSeed && readExpected(C.Expected, Expected))
    Want = Expected;
  ToolchainCacheStats Cache;
  for (int R = 0; R < Reps; ++R) {
    UnitResult U = runUnit(C);
    if (R == 0) {
      Cache = Toolchain::cacheStats();
      if (Want.empty())
        Want = U.Records;
    }
    Out.check(Cells, countMismatches(U.Records, Want));
    UnitWalls.push_back(U.Seconds);
  }
  Out.add("ocelot.cache_hits", static_cast<double>(Cache.Hits), "count");
  Out.add("ocelot.cache_misses", static_cast<double>(Cache.Misses), "count");

  // -- Harness: every cell its own SweepRunner::run, on the workload's
  // worker count, one span per cell. ----------------------------------------
  std::vector<double> CellP50, CellMax, Busy, HarnessWalls;
  {
    ScopedSpan Harness(Rec, "harness", RunId);
    for (int R = 0; R < Reps; ++R) {
      std::vector<std::string> Got(Cells);
      std::vector<double> CellMs;
      auto Start = Clock::now();
      ScopedSpan Sweep(Rec, "harness.sweep", Harness.id());
      std::atomic<size_t> Next{0};
      auto Worker = [&](unsigned Tid) {
        for (size_t I = Next.fetch_add(1); I < Cells; I = Next.fetch_add(1)) {
          SweepSpec One = singleCell(C.Spec, I);
          int Id = Rec.open("harness.cell", Sweep.id(), Tid);
          std::vector<SweepCellResult> Res = SweepRunner(1).run(One);
          Rec.close(Id, 1);
          Got[I] = cellRecord(Res.front().Metrics);
        }
      };
      std::vector<std::thread> Pool;
      for (unsigned T = 0; T < C.Workers; ++T)
        Pool.emplace_back(Worker, T + 1);
      for (std::thread &T : Pool)
        T.join();
      double Wall = secondsSince(Start);
      HarnessWalls.push_back(Wall);
      Out.check(Cells, countMismatches(Got, Want));

      std::vector<Span> All = Rec.spans();
      double Sum = 0;
      for (const Span &S : All)
        if (S.Parent == Sweep.id()) {
          CellMs.push_back(S.ms());
          Sum += S.ms();
        }
      CellP50.push_back(median(CellMs));
      CellMax.push_back(*std::max_element(CellMs.begin(), CellMs.end()));
      Busy.push_back(Sum / (C.Workers * Wall * 1e3));
    }
  }
  Out.add("harness.cell_ms_p50", median(CellP50), "ms");
  Out.add("harness.cell_ms_max", median(CellMax), "ms");
  Out.add("harness.worker_busy_frac", median(Busy), "ratio");

  // -- Fleet: the grid through two shards and a merge, against the same
  // cells evaluated in memory. runShard does not arm the oracle, so the
  // grid runs without it here on every workload and both sides do the
  // same simulation work. ----------------------------------------------------
  std::vector<double> ShardMs, MergeMs, OverheadUs, FleetWalls;
  uint64_t Bytes = 0;
  int64_t ManifestCommits = -1;
  {
    FleetSpec Fleet = C.G.fleetSpec();
    Fleet.Oracle = false;
    SweepSpec InMemory = C.Spec;
    InMemory.Oracle = false;
    std::string Dir = C.WorkDir + "/fleet-layer";
    ScopedSpan FleetSpan(Rec, "fleet", RunId);
    int FleetReps = C.W->Sharded ? Reps : 1;
    for (int R = 0; R < FleetReps; ++R) {
      auto Start = Clock::now();
      std::vector<SweepCellResult> Mem = SweepRunner(1).run(InMemory);
      double MemSec = secondsSince(Start);

      ScopedSpan Rep(Rec, "fleet.rep", FleetSpan.id());
      double ShardSec = 0, MergeSec = 0;
      std::vector<std::string> Merged;
      std::string Error;
      if (!runFleet(Fleet, Dir, &Rec, Rep.id(), ShardSec, MergeSec, Merged,
                    Error, &ManifestCommits))
        std::fprintf(stderr, "perfbench: fleet layer failed: %s\n",
                     Error.c_str());
      Out.check(Cells, countMismatches(Merged, cellRecords(Mem)));
      Bytes = directoryBytes(Dir);
      ShardMs.push_back(ShardSec * 1e3);
      MergeMs.push_back(MergeSec * 1e3);
      FleetWalls.push_back(ShardSec + MergeSec);
      OverheadUs.push_back((ShardSec - MemSec) * 1e6 /
                           static_cast<double>(Cells));
    }
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
  // Every manifest commit but each fresh shard's first (its header-only
  // start record) is a checkpoint.
  if (ManifestCommits < 0)
    std::fprintf(stderr, "perfbench: cannot watch the shard directory; "
                         "fleet.checkpoints is not measured\n");
  double Checkpoints =
      ManifestCommits < 0
          ? 0.0
          : static_cast<double>(ManifestCommits - FleetShards);
  Out.add("fleet.shard_ms", median(ShardMs), "ms");
  Out.add("fleet.merge_ms", median(MergeMs), "ms");
  Out.add("fleet.overhead_us_per_cell", median(OverheadUs), "us/cell");
  Out.add("fleet.bytes_written", static_cast<double>(Bytes), "B");
  Out.add("fleet.checkpoints", Checkpoints, "count");

  // -- Runtime ladder over the workload's own (model, benchmark) pairs. ---
  // Each rung span's Work is the steps it simulated; a rung's cost in a
  // repetition is its spans' summed duration over their summed steps.
  int LadderId = Rec.open("ladder", RunId);
  for (int R = 0; R < Reps; ++R) {
    ScopedSpan Rep(Rec, "ladder.rep", LadderId);
    for (size_t Rung = 0; Rung < NumRungs; ++Rung)
      for (size_t M = 0; M < C.Spec.Models.size(); ++M)
        for (size_t B = 0; B < C.Spec.Benchmarks.size(); ++B) {
          Simulation Sim(artifactFor(C, M, B), rungConfig(C.Spec, B, Rung));
          ScopedSpan S(Rec, Rungs[Rung], Rep.id());
          while (S.Work < LadderSteps) {
            RunResult Res = Sim.runOnce();
            S.Work += Res.Steps;
            if (!Res.Completed)
              break;
          }
        }
  }
  Rec.close(LadderId);
  std::vector<std::vector<double>> NsPerStep(NumRungs);
  {
    std::vector<Span> All = Rec.spans();
    for (size_t RepId = 0; RepId < All.size(); ++RepId) {
      if (All[RepId].Parent != LadderId)
        continue;
      std::vector<double> Ns(NumRungs), Steps(NumRungs);
      for (const Span &S : All)
        if (S.Parent == static_cast<int>(RepId))
          for (size_t Rung = 0; Rung < NumRungs; ++Rung)
            if (S.Name == Rungs[Rung]) {
              Ns[Rung] += static_cast<double>(S.EndNs - S.StartNs);
              Steps[Rung] += static_cast<double>(S.Work);
            }
      for (size_t Rung = 0; Rung < NumRungs; ++Rung)
        NsPerStep[Rung].push_back(Ns[Rung] / Steps[Rung]);
    }
  }
  const char *const RungMetrics[NumRungs] = {
      "runtime.dispatch_ns_per_step", "runtime.energy_ns_per_step",
      "runtime.bitvector_ns_per_step", "runtime.taint_ns_per_step",
      "fusion.oracle_ns_per_step"};
  double Below = 0;
  for (size_t Rung = 0; Rung < NumRungs; ++Rung) {
    double Abs = median(NsPerStep[Rung]);
    Out.add(RungMetrics[Rung], Abs - Below, "ns/step");
    Below = Abs;
  }

  // -- Deterministic counts: every cell again through Simulation::runOnce
  // on the default engine. ---------------------------------------------------
  CellCounts Sum;
  {
    ScopedSpan Counts(Rec, "runtime.counts", RunId);
    std::vector<std::string> Got;
    for (size_t I = 0; I < Cells; ++I) {
      SweepSpec::CellCoords X = C.Spec.cellAt(I);
      Got.push_back(replayCell(C.Spec, I, artifactFor(C, X.Model, X.Bench),
                               RunConfig().Dispatch, Sum));
    }
    Counts.Work = Sum.Steps;
    Out.check(Cells, countMismatches(Got, Want));
  }
  auto Count = [&](const char *Name, uint64_t V) {
    Out.add(Name, static_cast<double>(V), "count");
  };
  Count("runtime.steps", Sum.Steps);
  Count("runtime.reboots", Sum.Reboots);
  Count("runtime.checkpoints", Sum.Checkpoints);
  Count("runtime.undo_log_entries", Sum.UndoLogEntries);
  Count("runtime.atomic_commits", Sum.AtomicCommits);
  Count("runtime.atomic_aborts", Sum.AtomicAborts);
  uint64_t Attempts = Sum.AtomicCommits + Sum.AtomicAborts;
  Out.add("runtime.commit_ratio",
          Attempts ? static_cast<double>(Sum.AtomicCommits) /
                         static_cast<double>(Attempts)
                   : 0.0,
          "ratio");
  Count("runtime.violations", Sum.Violations);
  Count("fusion.oracle_outputs", Sum.OracleOutputs);

  // -- Compile-layer self times, median over the set-up repetitions. ------
  std::vector<Span> All = Rec.spans();
  int SetupRoot = -1;
  for (size_t I = 0; I < All.size(); ++I)
    if (All[I].Name == "setup")
      SetupRoot = static_cast<int>(I);
  auto PerRep = selfTimeByRepetition(All, SetupRoot);
  for (const auto &[SpanName, MetricName] : CompileLayers) {
    std::vector<double> V;
    for (const auto &Rep : PerRep) {
      auto It = Rep.find(SpanName);
      V.push_back(It == Rep.end() ? 0.0 : It->second);
    }
    Out.add(MetricName, median(V), "ms");
  }

  // Tracing overhead: the traced counterpart of the workload's own grid
  // evaluation (per-cell spans for a sweep, shard and merge spans for the
  // fleet) against the untraced one.
  double Traced = C.W->Sharded ? median(FleetWalls) : median(HarnessWalls);
  Out.add("trace.overhead_ms", (Traced - median(UnitWalls)) * 1e3, "ms");

  Rec.close(RunId);
  std::string Error;
  if (!Rec.writeChromeTrace(C.TracePath, Error))
    std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
  else
    std::fprintf(stderr, "perfbench: trace written to %s\n",
                 C.TracePath.c_str());
  return true;
}
