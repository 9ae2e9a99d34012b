//===- micro_runtime.cpp - Runtime mechanism micro-benchmarks --------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime micro-benchmarks in three parts:
///
///  * `--json=PATH` — the interpreter throughput report: steps-per-second
///    of every dispatch engine against the tree-walking baseline for every
///    benchmark x execution model, written as JSON so CI can record the
///    perf trajectory per PR (tools/bench_compare.py gates on the
///    host-normalized speedup ratios). Needs no external library. The
///    schema is N-engine: adding an engine extends the `engines` array
///    and the per-row maps without changing any existing key.
///
///  * `--pairs` — the dynamic PC-adjacent opcode-pair histogram over all
///    benchmarks x models, collected with an execution profile
///    (PcProfile::PairCounts). This is the data the superinstruction
///    pattern table (OCELOT_FUSED_PAIRS in ExecutableImage.h) was chosen
///    from.
///
///  * Google-Benchmark micro-suite (when the library is available) for the
///    simulator's mechanisms: interpreter throughput, taint-tracking
///    overhead, undo-log modes (dynamic first-write vs static omega
///    backup), compilation and region-inference cost. These support
///    Figures 7/8 by showing where simulated cycles come from and what
///    the host-side costs of the toolchain are.
///
//===----------------------------------------------------------------------===//

#include "apps/Benchmarks.h"
#include "fleet/FleetRunner.h"
#include "fleet/ShardProgress.h"
#include "harness/Experiment.h"
#include "harness/SweepRunner.h"
#include "ocelot/Toolchain.h"
#include "runtime/Simulation.h"
#include "telemetry/MetricsRegistry.h"
#include "telemetry/Profile.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#ifdef OCELOT_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif

#ifndef _WIN32
#include <unistd.h>
#endif

using namespace ocelot;

namespace {

// -- Interpreter throughput report (--json) --------------------------------

struct Throughput {
  double StepsPerSec = 0;
  uint64_t StepsPerRun = 0;
};

/// Runs complete continuous activations under \p Engine until at least
/// \p MinSeconds of wall clock elapsed; reports executed instructions per
/// second. Continuous power isolates the dispatch loop itself: no failure
/// injection, no monitors — fetch, cost charging and opcode execution.
Throughput measureThroughput(const CompiledBenchmark &CB,
                             const BenchmarkDef &B, DispatchEngine Engine,
                             double MinSeconds) {
  RunConfig Cfg;
  Cfg.Sensors = B.scenario(1);
  Cfg.Seed = 1;
  Cfg.Dispatch = Engine;
  Simulation Sim(CB.Artifact, std::move(Cfg));

  // Warm-up activation (cold caches, first-touch allocation).
  RunResult Warm = Sim.runOnce();
  if (!Warm.Completed) {
    std::fprintf(stderr, "throughput run of %s failed: %s\n",
                 CB.Name.c_str(), Warm.Trap.c_str());
    std::abort();
  }

  // Best of three trials. External CPU contention (a shared host, a
  // background compile) only ever slows a trial down, so the fastest
  // trial is the least-contaminated estimate of the engine's throughput;
  // averaging would fold the contention back in. Smoke mode keeps one
  // trial — it gates nothing on the numbers.
  const int Trials = MinSeconds < 0.1 ? 1 : 3;
  Throughput T;
  for (int Trial = 0; Trial < Trials; ++Trial) {
    uint64_t Steps = 0;
    uint64_t Runs = 0;
    uint64_t Batch = 1;
    auto Start = std::chrono::steady_clock::now();
    double Elapsed = 0;
    do {
      for (uint64_t I = 0; I < Batch; ++I) {
        RunResult R = Sim.runOnce();
        if (!R.Completed) {
          std::fprintf(stderr, "throughput run of %s failed: %s\n",
                       CB.Name.c_str(), R.Trap.c_str());
          std::abort();
        }
        Steps += R.Steps;
      }
      Runs += Batch;
      Elapsed = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
      // Keep clock reads off the measured path: grow the batch until one
      // batch spans a meaningful slice of the budget.
      if (Elapsed * 64 < MinSeconds)
        Batch *= 2;
    } while (Elapsed < MinSeconds);
    const double StepsPerSec = static_cast<double>(Steps) / Elapsed;
    if (StepsPerSec > T.StepsPerSec) {
      T.StepsPerSec = StepsPerSec;
      T.StepsPerRun = Steps / Runs;
    }
  }
  return T;
}

/// The engines the report measures. The baseline comes first: every other
/// engine's speedup (and the CI gate in tools/bench_compare.py) is the
/// steps/sec ratio against it, which normalizes out host speed.
struct EngineSpec {
  const char *Name;
  DispatchEngine Engine;
};
constexpr EngineSpec Engines[] = {
    {"tree", DispatchEngine::Tree},
    {"threaded", DispatchEngine::Threaded},
};
constexpr size_t NumEngines = sizeof(Engines) / sizeof(Engines[0]);

const ExecModel ReportModels[] = {ExecModel::Ocelot, ExecModel::JitOnly,
                                  ExecModel::AtomicsOnly};

/// One measured activation executes the app body this many times
/// (compileBenchmark's MainReps driver): trivial apps like send_photo run
/// ~10 instructions per activation, so unamortized rows would time
/// per-activation setup instead of the dispatch loop the report is for.
constexpr int ThroughputReps = 64;

// -- Sweep-throughput section (cells/sec, in-memory vs fleet shard) --------

struct SweepRates {
  size_t Cells = 0;
  uint64_t TauBudget = 0;
  double MemCellsPerSec = 0;  ///< SweepRunner(1), in-memory aggregation.
  double FleetCellsPerSec = 0; ///< runShard: streaming + checkpoints.
};

/// Evaluates a table2b-shaped grid (all benchmarks x {ocelot, jit}) twice —
/// once through the in-memory SweepRunner, once as a single fleet shard
/// streaming to a JSONL sink — and reports cells per second for both. The
/// committed, gated number is the *ratio* (fleet / in-memory), which
/// normalizes out host speed. Checkpoints commit in place (no rename), so
/// the ratio measures streaming: record formatting and sink writes, plus
/// the shard's few syncs (manifest creation, the final sink flush and one
/// slot commit).
SweepRates measureSweepRates(bool Smoke) {
  FleetSpec Fleet;
  Fleet.Models = {"ocelot", "jit"};
  for (const BenchmarkDef &B : allBenchmarks())
    Fleet.Benchmarks.push_back(B.Name);
  Fleet.Energies = {EnergyConfig()};
  Fleet.Seeds = {99, 100, 101, 102};
  Fleet.TauBudget = Smoke ? 50000 : 400000;

  SweepSpec Spec;
  std::string Err;
  if (!Fleet.resolve(Spec, Err)) {
    std::fprintf(stderr, "sweep section: %s\n", Err.c_str());
    std::abort();
  }
  // Warm the process-wide artifact cache so both timed phases measure
  // evaluation, not compilation.
  for (ExecModel Model : Spec.Models)
    for (const BenchmarkDef *B : Spec.Benchmarks)
      compileBenchmark(*B, Model);

  SweepRates R;
  R.Cells = Spec.cellCount();
  R.TauBudget = Fleet.TauBudget;

  // Best-of-N on both phases: each phase runs tens of milliseconds, so a
  // single scheduler hiccup on a busy CI host would otherwise swamp the
  // gated ratio.
  const int Reps = Smoke ? 1 : 3;

  double MemSec = 0;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    auto T0 = std::chrono::steady_clock::now();
    std::vector<SweepCellResult> Mem = SweepRunner(1).run(Spec);
    auto T1 = std::chrono::steady_clock::now();
    double Sec = std::chrono::duration<double>(T1 - T0).count();
    if (Rep == 0 || Sec < MemSec)
      MemSec = Sec;
  }
  R.MemCellsPerSec = static_cast<double>(R.Cells) / MemSec;

  char Dir[] = "/tmp/ocelot-fleet-bench-XXXXXX";
  if (!mkdtemp(Dir)) {
    std::fprintf(stderr, "sweep section: cannot create temp dir\n");
    std::abort();
  }
  ShardRunOptions Opts;
  Opts.OutDir = Dir;
  Opts.Quiet = true;
  // One checkpoint at the end of the range: the gated ratio should track
  // streaming/serialization overhead, not the host's sync latency (which
  // varies widely across CI runners and is covered by FleetTest and the
  // CI fleet lane instead).
  Opts.CheckpointEvery = R.Cells;
  double FleetSec = 0;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    // A completed shard resumes as a no-op; wipe it between reps.
    std::remove(shardResultPath(Opts).c_str());
    std::remove(shardManifestPath(Opts).c_str());
    ShardOutcome Outcome;
    auto T2 = std::chrono::steady_clock::now();
    if (!runShard(Fleet, Opts, Outcome, Err)) {
      std::fprintf(stderr, "sweep section: %s\n", Err.c_str());
      std::abort();
    }
    auto T3 = std::chrono::steady_clock::now();
    double Sec = std::chrono::duration<double>(T3 - T2).count();
    if (Rep == 0 || Sec < FleetSec)
      FleetSec = Sec;
  }
  R.FleetCellsPerSec = static_cast<double>(R.Cells) / FleetSec;

  std::remove(shardResultPath(Opts).c_str());
  std::remove(shardManifestPath(Opts).c_str());
  std::remove(shardProgressPath(Opts).c_str());
  ::rmdir(Dir);
  return R;
}

// -- Compile-cost section (toolchain wall time + artifact cache) -----------

struct CompileCosts {
  struct Row {
    std::string Name;
    double WallMs = 0;
  };
  std::vector<Row> Rows;       ///< Best-of-N uncached Ocelot compile.
  uint64_t CacheHits = 0;      ///< Process-wide compileCached stats.
  uint64_t CacheMisses = 0;
};

/// Times an uncached Ocelot-model compile of every benchmark, reading the
/// wall time back out of the MetricsRegistry that Toolchain::compile
/// feeds (so the report exercises the same counters operators see in a
/// metrics dump). Cache hit/miss totals come from Toolchain::cacheStats
/// and cover the whole bench process — by this point the throughput and
/// sweep sections have gone through compileBenchmark/compileCached many
/// times, and nothing clears the cache.
CompileCosts measureCompileCosts(bool Smoke) {
  CompileCosts C;
  MetricsRegistry &M = MetricsRegistry::global();
  Toolchain TC;
  const int Reps = Smoke ? 1 : 3;
  for (const BenchmarkDef &B : allBenchmarks()) {
    double Best = 0;
    for (int Rep = 0; Rep < Reps; ++Rep) {
      double SumBefore = M.summary("toolchain.compile.wall_ms").Sum;
      CompileOptions Opts;
      Opts.Model = ExecModel::Ocelot;
      Compilation Comp = TC.compile(B.AnnotatedSrc, Opts);
      if (!Comp.ok()) {
        std::fprintf(stderr, "compile section: %s failed to compile\n",
                     B.Name.c_str());
        std::abort();
      }
      double Ms = M.summary("toolchain.compile.wall_ms").Sum - SumBefore;
      if (Rep == 0 || Ms < Best)
        Best = Ms;
    }
    C.Rows.push_back({B.Name, Best});
  }
  ToolchainCacheStats Cache = Toolchain::cacheStats();
  C.CacheHits = Cache.Hits;
  C.CacheMisses = Cache.Misses;
  return C;
}

// -- Shard peak-RSS section (fleet memory gate) ----------------------------

struct ShardRss {
  size_t Cells = 0;
  double PeakRssMb = 0;
};

/// Runs a many-cell single-benchmark fleet shard and reports the process
/// peak RSS afterwards. The fleet service documents a bounded footprint —
/// artifacts + reorder window + one Simulation per worker, never the
/// whole grid — so a regression that accumulates per-cell state shows up
/// here as RSS scaling with the 10k-cell grid. getrusage's high-water
/// mark is process-wide (it includes the earlier report sections), which
/// only makes the gate stricter.
ShardRss measureShardRss(bool Smoke) {
  FleetSpec Fleet;
  Fleet.Models = {"ocelot"};
  Fleet.Benchmarks = {"tire"};
  Fleet.Energies = {EnergyConfig()};
  const uint64_t NumSeeds = Smoke ? 1000 : 10000;
  for (uint64_t S = 0; S < NumSeeds; ++S)
    Fleet.Seeds.push_back(1000 + S);
  Fleet.TauBudget = Smoke ? 2000 : 20000;

  char Dir[] = "/tmp/ocelot-fleet-rss-XXXXXX";
  if (!mkdtemp(Dir)) {
    std::fprintf(stderr, "rss section: cannot create temp dir\n");
    std::abort();
  }
  ShardRunOptions Opts;
  Opts.OutDir = Dir;
  Opts.Quiet = true;
  Opts.CheckpointEvery = NumSeeds; // Measure memory, not fsync latency.
  ShardOutcome Outcome;
  std::string Err;
  if (!runShard(Fleet, Opts, Outcome, Err)) {
    std::fprintf(stderr, "rss section: %s\n", Err.c_str());
    std::abort();
  }
  ShardRss R;
  R.Cells = NumSeeds;
  R.PeakRssMb = peakRssMb();
  std::remove(shardResultPath(Opts).c_str());
  std::remove(shardManifestPath(Opts).c_str());
  std::remove(shardProgressPath(Opts).c_str());
  ::rmdir(Dir);
  return R;
}

int runInterpReport(const std::string &Path) {
  const bool Smoke = benchSmokeMode();
  // Long enough for stable numbers in a full run; bench-smoke keeps every
  // binary fast enough to run on each PR.
  const double MinSeconds = Smoke ? 0.02 : 0.25;

  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return 1;
  }
  std::fprintf(Out, "{\n  \"report\": \"interpreter steps per second\",\n"
                    "  \"mode\": \"%s\",\n  \"baseline\": \"%s\",\n"
                    "  \"engines\": [",
               Smoke ? "smoke" : "full", Engines[0].Name);
  for (size_t E = 0; E < NumEngines; ++E)
    std::fprintf(Out, "%s\"%s\"", E ? ", " : "", Engines[E].Name);
  std::fprintf(Out, "],\n  \"rows\": [\n");

  double LogSum[NumEngines] = {};
  int RowCount = 0;
  for (const BenchmarkDef &B : allBenchmarks()) {
    for (ExecModel Model : ReportModels) {
      CompiledBenchmark CB = compileBenchmark(B, Model, ThroughputReps);
      Throughput T[NumEngines];
      for (size_t E = 0; E < NumEngines; ++E)
        T[E] = measureThroughput(CB, B, Engines[E].Engine, MinSeconds);
      double Speedup[NumEngines] = {};
      for (size_t E = 1; E < NumEngines; ++E) {
        Speedup[E] =
            T[0].StepsPerSec > 0 ? T[E].StepsPerSec / T[0].StepsPerSec : 0;
        LogSum[E] += std::log(Speedup[E]);
      }
      std::fprintf(Out,
                   "%s    {\"benchmark\": \"%s\", \"model\": \"%s\", "
                   "\"steps_per_run\": %llu, \"steps_per_sec\": {",
                   RowCount ? ",\n" : "", B.Name.c_str(),
                   execModelName(Model),
                   static_cast<unsigned long long>(T[0].StepsPerRun));
      for (size_t E = 0; E < NumEngines; ++E)
        std::fprintf(Out, "%s\"%s\": %.0f", E ? ", " : "", Engines[E].Name,
                     T[E].StepsPerSec);
      std::fprintf(Out, "}, \"speedup\": {");
      for (size_t E = 1; E < NumEngines; ++E)
        std::fprintf(Out, "%s\"%s\": %.3f", E > 1 ? ", " : "",
                     Engines[E].Name, Speedup[E]);
      std::fprintf(Out, "}}");
      std::fprintf(stderr, "%-12s %-8s", B.Name.c_str(),
                   execModelName(Model));
      for (size_t E = 0; E < NumEngines; ++E) {
        std::fprintf(stderr, "  %s %10.0f", Engines[E].Name,
                     T[E].StepsPerSec);
        if (E)
          std::fprintf(stderr, " (x%.2f)", Speedup[E]);
      }
      std::fprintf(stderr, "\n");
      ++RowCount;
    }
  }
  std::fprintf(Out, "\n  ],\n  \"geomean_speedup\": {");
  for (size_t E = 1; E < NumEngines; ++E)
    std::fprintf(Out, "%s\"%s\": %.3f", E > 1 ? ", " : "", Engines[E].Name,
                 std::exp(LogSum[E] / RowCount));
  std::fprintf(Out, "},\n");

  // Toolchain cost: uncached compile wall time per benchmark plus the
  // process-wide artifact-cache hit rate, read back from MetricsRegistry.
  // Diagnostic only (host-speed dependent) — bench_compare.py prints it
  // but gates nothing on it. Measured after the sweep sections below so
  // the cache stats cover every compileCached call the report makes.
  SweepRates SR = measureSweepRates(Smoke);
  ShardRss RSS = measureShardRss(Smoke);
  CompileCosts CC = measureCompileCosts(Smoke);
  std::fprintf(Out, "  \"compile\": {\"benchmarks\": [");
  for (size_t I = 0; I < CC.Rows.size(); ++I)
    std::fprintf(Out, "%s{\"name\": \"%s\", \"wall_ms\": %.3f}",
                 I ? ", " : "", CC.Rows[I].Name.c_str(), CC.Rows[I].WallMs);
  uint64_t CacheTotal = CC.CacheHits + CC.CacheMisses;
  std::fprintf(Out,
               "], \"cache\": {\"hits\": %llu, \"misses\": %llu, "
               "\"hit_rate\": %.3f}},\n",
               static_cast<unsigned long long>(CC.CacheHits),
               static_cast<unsigned long long>(CC.CacheMisses),
               CacheTotal ? static_cast<double>(CC.CacheHits) /
                                static_cast<double>(CacheTotal)
                          : 0);
  for (const CompileCosts::Row &Row : CC.Rows)
    std::fprintf(stderr, "compile: %-12s %8.2f ms\n", Row.Name.c_str(),
                 Row.WallMs);
  std::fprintf(stderr, "compile cache: %llu hit(s), %llu miss(es)\n",
               static_cast<unsigned long long>(CC.CacheHits),
               static_cast<unsigned long long>(CC.CacheMisses));

  // Sweep-level throughput: the fleet service's streaming shard against
  // the in-memory runner. `fleet_relative` is the host-normalized ratio
  // tools/bench_compare.py gates.
  std::fprintf(Out,
               "  \"sweep\": {\"cells\": %zu, \"tau_budget\": %llu, "
               "\"cells_per_sec\": %.3f, \"fleet_cells_per_sec\": %.3f, "
               "\"fleet_relative\": %.3f, \"rss_cells\": %zu, "
               "\"peak_rss_mb\": %.1f}\n}\n",
               SR.Cells, static_cast<unsigned long long>(SR.TauBudget),
               SR.MemCellsPerSec, SR.FleetCellsPerSec,
               SR.MemCellsPerSec > 0
                   ? SR.FleetCellsPerSec / SR.MemCellsPerSec
                   : 0,
               RSS.Cells, RSS.PeakRssMb);
  std::fprintf(stderr,
               "sweep: %zu cells  in-memory %.1f cells/s  fleet %.1f "
               "cells/s (x%.2f)\n",
               SR.Cells, SR.MemCellsPerSec, SR.FleetCellsPerSec,
               SR.MemCellsPerSec > 0
                   ? SR.FleetCellsPerSec / SR.MemCellsPerSec
                   : 0);
  std::fprintf(stderr, "fleet shard of %zu cell(s): peak RSS %.1f MB\n",
               RSS.Cells, RSS.PeakRssMb);
  std::fclose(Out);
  for (size_t E = 1; E < NumEngines; ++E)
    std::fprintf(stderr, "geomean %s/%s speedup: x%.2f\n", Engines[E].Name,
                 Engines[0].Name, std::exp(LogSum[E] / RowCount));
  std::fprintf(stderr, "report written to %s\n", Path.c_str());
  return 0;
}

// -- Dynamic opcode-pair histogram (--pairs) -------------------------------

int runPairHistogram() {
  PcProfile Merged;
  const int RunsPer = benchSmokeMode() ? 1 : 8;
  for (const BenchmarkDef &B : allBenchmarks()) {
    for (ExecModel Model : ReportModels) {
      CompiledBenchmark CB = compileBenchmark(B, Model);
      PcProfile Prof;
      Prof.prepare(CB.Artifact.image().size(),
                   static_cast<size_t>(NumOpcodes));
      RunConfig Cfg;
      Cfg.Sensors = B.scenario(1);
      Cfg.Seed = 1;
      Cfg.Profile = &Prof;
      Simulation Sim(CB.Artifact, std::move(Cfg));
      for (int R = 0; R < RunsPer; ++R) {
        RunResult Res = Sim.runOnce();
        if (!Res.Completed) {
          std::fprintf(stderr, "pair-histogram run of %s failed: %s\n",
                       CB.Name.c_str(), Res.Trap.c_str());
          return 1;
        }
      }
      Merged.merge(Prof);
    }
  }
  // Per-PC counts of different images do not add up to anything; only the
  // opcode-pair histogram is image-independent.
  const std::vector<uint64_t> &Hist = Merged.PairCounts;

  struct PairCount {
    int Prev = 0, Cur = 0;
    uint64_t N = 0;
  };
  std::vector<PairCount> Pairs;
  uint64_t Total = 0;
  for (int Prev = 0; Prev < NumOpcodes; ++Prev)
    for (int Cur = 0; Cur < NumOpcodes; ++Cur) {
      uint64_t N = Hist[static_cast<size_t>(Prev) *
                            static_cast<size_t>(NumOpcodes) +
                        static_cast<size_t>(Cur)];
      if (N) {
        Pairs.push_back({Prev, Cur, N});
        Total += N;
      }
    }
  std::sort(Pairs.begin(), Pairs.end(),
            [](const PairCount &A, const PairCount &B) { return A.N > B.N; });

  std::printf("dynamic opcode pairs over all benchmarks x models "
              "(%llu PC-adjacent executions)\n",
              static_cast<unsigned long long>(Total));
  std::printf("%-24s %14s %8s %8s\n", "pair", "count", "%", "cum%");
  double Cum = 0;
  size_t Shown = 0;
  for (const PairCount &PC : Pairs) {
    double Pct = 100.0 * static_cast<double>(PC.N) /
                 static_cast<double>(Total);
    Cum += Pct;
    std::string Name = std::string(opcodeName(static_cast<Opcode>(PC.Prev))) +
                       "+" + opcodeName(static_cast<Opcode>(PC.Cur));
    std::printf("%-24s %14llu %7.2f%% %7.2f%%\n", Name.c_str(),
                static_cast<unsigned long long>(PC.N), Pct, Cum);
    if (++Shown >= 20)
      break;
  }
  return 0;
}

} // namespace

#ifdef OCELOT_HAVE_GBENCH

namespace {

const BenchmarkDef &tire() { return *findBenchmark("tire"); }
const BenchmarkDef &cem() { return *findBenchmark("cem"); }

void BM_CompileOcelot(benchmark::State &State) {
  Toolchain TC;
  for (auto _ : State) {
    CompileOptions Opts;
    Opts.Model = ExecModel::Ocelot;
    Compilation C = TC.compile(tire().AnnotatedSrc, Opts);
    benchmark::DoNotOptimize(C.ok());
  }
}
BENCHMARK(BM_CompileOcelot);

void BM_CompileJitOnly(benchmark::State &State) {
  Toolchain TC;
  for (auto _ : State) {
    CompileOptions Opts;
    Opts.Model = ExecModel::JitOnly;
    Compilation C = TC.compile(tire().AnnotatedSrc, Opts);
    benchmark::DoNotOptimize(C.ok());
  }
}
BENCHMARK(BM_CompileJitOnly);

/// Interpreter throughput under both dispatch engines; the ratio is what
/// the --json report records per PR.
void interpretContinuous(benchmark::State &State, DispatchEngine Engine) {
  CompiledArtifact A = compileBenchmark(tire(), ExecModel::Ocelot).Artifact;
  RunConfig Cfg;
  Cfg.Sensors = tire().scenario(1);
  Cfg.Dispatch = Engine;
  Simulation Sim(A, std::move(Cfg));
  uint64_t Cycles = 0, Steps = 0;
  for (auto _ : State) {
    RunResult Res = Sim.runOnce();
    Cycles += Res.OnCycles;
    Steps += Res.Steps;
    benchmark::DoNotOptimize(Res.Completed);
  }
  State.counters["sim_cycles/run"] =
      benchmark::Counter(static_cast<double>(Cycles) /
                         static_cast<double>(State.iterations()));
  State.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(Steps), benchmark::Counter::kIsRate);
}

void BM_InterpretContinuousThreaded(benchmark::State &State) {
  interpretContinuous(State, DispatchEngine::Threaded);
}
BENCHMARK(BM_InterpretContinuousThreaded);

void BM_InterpretContinuousTree(benchmark::State &State) {
  interpretContinuous(State, DispatchEngine::Tree);
}
BENCHMARK(BM_InterpretContinuousTree);

void BM_InterpretWithTaint(benchmark::State &State) {
  CompiledArtifact A = compileBenchmark(tire(), ExecModel::Ocelot).Artifact;
  RunConfig Cfg;
  Cfg.Sensors = tire().scenario(1);
  Cfg.MonitorFormal = true;
  Cfg.MonitorBitVector = true;
  Simulation Sim(A, std::move(Cfg));
  for (auto _ : State) {
    RunResult Res = Sim.runOnce();
    benchmark::DoNotOptimize(Res.Completed);
  }
}
BENCHMARK(BM_InterpretWithTaint);

void BM_InterpretIntermittent(benchmark::State &State) {
  CompiledArtifact A = compileBenchmark(tire(), ExecModel::Ocelot).Artifact;
  RunConfig Cfg;
  Cfg.Sensors = tire().scenario(1);
  Cfg.Plan = FailurePlan::energyDriven();
  Simulation Sim(A, std::move(Cfg));
  for (auto _ : State) {
    RunResult Res = Sim.runOnce();
    benchmark::DoNotOptimize(Res.Completed);
  }
}
BENCHMARK(BM_InterpretIntermittent);

/// Undo-log mode comparison on CEM's write-heavy atomics build: dynamic
/// first-write logging vs static omega backup at region entry (simulated
/// cycle counts are the interesting output).
void undoLogMode(benchmark::State &State, bool StaticOmega) {
  CompiledArtifact A =
      compileBenchmark(cem(), ExecModel::AtomicsOnly).Artifact;
  RunConfig Cfg;
  Cfg.Sensors = cem().scenario(1);
  Cfg.StaticOmega = StaticOmega;
  Simulation Sim(A, std::move(Cfg));
  uint64_t SimCycles = 0, LogEntries = 0;
  for (auto _ : State) {
    RunResult Res = Sim.runOnce();
    SimCycles += Res.OnCycles;
    LogEntries += Res.UndoLogEntries;
  }
  double N = static_cast<double>(State.iterations());
  State.counters["sim_cycles/run"] =
      benchmark::Counter(static_cast<double>(SimCycles) / N);
  State.counters["log_entries/run"] =
      benchmark::Counter(static_cast<double>(LogEntries) / N);
}

void BM_UndoLogDynamic(benchmark::State &State) {
  undoLogMode(State, /*StaticOmega=*/false);
}
BENCHMARK(BM_UndoLogDynamic);

void BM_UndoLogStaticOmega(benchmark::State &State) {
  undoLogMode(State, /*StaticOmega=*/true);
}
BENCHMARK(BM_UndoLogStaticOmega);

void BM_RegionInference(benchmark::State &State) {
  // Inference cost isolated: parse+lower once per iteration is included in
  // BM_CompileOcelot; here the delta against JitOnly shows analysis cost.
  Toolchain TC;
  for (auto _ : State) {
    CompileOptions Opts;
    Opts.Model = ExecModel::Ocelot;
    Opts.SelfCheck = true;
    Compilation C = TC.compile(cem().AnnotatedSrc, Opts);
    if (!C.ok())
      std::abort();
    benchmark::DoNotOptimize(C.artifact().inferredRegions().size());
  }
}
BENCHMARK(BM_RegionInference);

} // namespace

#endif // OCELOT_HAVE_GBENCH

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    if (std::strncmp(argv[I], "--json=", 7) == 0)
      return runInterpReport(argv[I] + 7);
    if (std::strcmp(argv[I], "--pairs") == 0)
      return runPairHistogram();
  }
#ifdef OCELOT_HAVE_GBENCH
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#else
  std::fprintf(stderr,
               "micro_runtime was built without Google Benchmark; only the "
               "interpreter throughput report is available:\n"
               "  micro_runtime --json=BENCH_interp.json\n");
  return 1;
#endif
}
