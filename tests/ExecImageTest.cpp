//===- ExecImageTest.cpp - ExecutableImage construction + differential execution --===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the threaded engine to the tree-walking reference semantics, and
/// unit-tests the ExecutableImage construction itself:
///
///  * Differential sweep — every benchmark x {Ocelot, JIT-only,
///    Atomics-only} x 3 seeds runs under energy-driven failures on the
///    tree engine and on the threaded engine; RunResult (traps, outputs,
///    violation and oracle records, all intermittent counters) and final
///    device state must match exactly. The taint loop dispatches every
///    PC's plain code, so the configurations that arm the formal monitor
///    or the oracle are the unfused reference; the taint-off checked and
///    Hot loops take the fused pairs.
///    Focused differentials cover the pathological, random (+static
///    omega) and zero-jitter energy-driven failure paths, a trace-driven
///    SensorScenario feeding the zero-temporary Input paths, the energy
///    comparator's countdown at its edges (a hand-written region entry
///    that drains to the reserve, the starvation exits), the
///    bit-vector-only monitor configuration (the taint-off checked loop;
///    the formal monitor and the oracle run the taint loop) and the
///    monitor-free continuous configuration (the Hot loop).
///
///  * Split step header — the checked loops' one-compare header and its
///    slow step, at their edges: a use check on a fused pair's tail, a
///    watched step that drains the headroom, the consecutive-failure
///    rule, a profiled run's counts and the bit vector with no energy
///    model.
///
///  * Image construction — linearization order, branch/call target
///    resolution, cost-table folding (and the watched step-cost tables),
///    monitor/omega side-table density and the NVM layout table are
///    checked against the source Program.
///
///  * Fusion passes — every superinstruction the peephole pass formed is
///    re-validated against its pattern-table row: correct
///    opcode pair, forwarding patterns really consume the head's
///    destination, tails keep plain dispatch codes, no pair covers a
///    leader, crosses a function, or contains a region bound, and the
///    per-PC side tables (folded costs, monitor flags, omega spans,
///    resolved branch targets) are untouched at fused sites.
///
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "ocelot/Toolchain.h"
#include "runtime/Simulation.h"
#include "telemetry/Profile.h"
#include "telemetry/TraceSink.h"

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

using namespace ocelot;

namespace {

// -- Differential execution ------------------------------------------------

/// Everything observable about one activation must match across engines.
void expectSameResult(const RunResult &Got /*engine under test*/,
                      const RunResult &Tree /*reference*/,
                      const std::string &What) {
  EXPECT_EQ(Got.Completed, Tree.Completed) << What;
  EXPECT_EQ(Got.Starved, Tree.Starved) << What;
  EXPECT_EQ(Got.Trap, Tree.Trap) << What;
  EXPECT_EQ(Got.OnCycles, Tree.OnCycles) << What;
  EXPECT_EQ(Got.OffCycles, Tree.OffCycles) << What;
  EXPECT_EQ(Got.Steps, Tree.Steps) << What;
  EXPECT_EQ(Got.Reboots, Tree.Reboots) << What;
  EXPECT_EQ(Got.Checkpoints, Tree.Checkpoints) << What;
  EXPECT_EQ(Got.UndoLogEntries, Tree.UndoLogEntries) << What;
  EXPECT_EQ(Got.AtomicCommits, Tree.AtomicCommits) << What;
  EXPECT_EQ(Got.AtomicAborts, Tree.AtomicAborts) << What;
  EXPECT_EQ(Got.ViolatedFresh, Tree.ViolatedFresh) << What;
  EXPECT_EQ(Got.ViolatedConsistent, Tree.ViolatedConsistent) << What;
  EXPECT_EQ(Got.FinalTau, Tree.FinalTau) << What;

  ASSERT_EQ(Got.Violations.size(), Tree.Violations.size()) << What;
  for (size_t V = 0; V < Got.Violations.size(); ++V) {
    const ViolationRecord &GV = Got.Violations[V];
    const ViolationRecord &TV = Tree.Violations[V];
    EXPECT_EQ(GV.K, TV.K) << What << " violation " << V;
    EXPECT_TRUE(GV.Site == TV.Site) << What << " violation " << V;
    EXPECT_EQ(GV.SetId, TV.SetId) << What << " violation " << V;
    EXPECT_EQ(GV.Tau, TV.Tau) << What << " violation " << V;
    EXPECT_EQ(GV.detail(), TV.detail()) << What << " violation " << V;
  }

  EXPECT_EQ(Got.OracleFresh, Tree.OracleFresh) << What;
  EXPECT_EQ(Got.OracleStale, Tree.OracleStale) << What;
  EXPECT_EQ(Got.OracleCrossEpoch, Tree.OracleCrossEpoch) << What;
  ASSERT_EQ(Got.OracleRecords.size(), Tree.OracleRecords.size()) << What;
  for (size_t O = 0; O < Got.OracleRecords.size(); ++O)
    EXPECT_TRUE(Got.OracleRecords[O] == Tree.OracleRecords[O])
        << What << " oracle record " << O;

  ASSERT_EQ(Got.TraceData.Inputs.size(), Tree.TraceData.Inputs.size())
      << What;
  for (size_t I = 0; I < Got.TraceData.Inputs.size(); ++I)
    EXPECT_TRUE(Got.TraceData.Inputs[I] == Tree.TraceData.Inputs[I])
        << What << " input " << I;
  ASSERT_EQ(Got.TraceData.Outputs.size(), Tree.TraceData.Outputs.size())
      << What;
  for (size_t O = 0; O < Got.TraceData.Outputs.size(); ++O) {
    EXPECT_TRUE(Got.TraceData.Outputs[O].sameContent(
        Tree.TraceData.Outputs[O]))
        << What << " output " << O;
    EXPECT_EQ(Got.TraceData.Outputs[O].Tau, Tree.TraceData.Outputs[O].Tau)
        << What << " output " << O;
  }
  EXPECT_EQ(Got.TraceData.Reboots, Tree.TraceData.Reboots) << What;
}

/// Runs \p Runs activations of \p A on the tree engine and on the
/// threaded engine, with otherwise identical specs, and compares every
/// activation plus the final device state against the tree reference. A
/// null \p Scenario selects the default noise world. \p Traced attaches a
/// TraceSink per engine, whose exports (every monitor check among them)
/// must match byte for byte. \returns the tree engine's results, so a
/// caller can check that its configuration reached the path it targets.
std::vector<RunResult>
runDifferential(const CompiledArtifact &A, uint64_t Seed,
                const RunConfig &Base, int Runs,
                std::shared_ptr<const SensorScenario> Scenario,
                const std::string &What, bool Traced = false) {
  TraceSink Sinks[2];
  auto mkSim = [&](DispatchEngine E) {
    RunConfig Cfg = Base;
    Cfg.Sensors = Scenario;
    Cfg.Seed = Seed;
    Cfg.Dispatch = E;
    if (Traced)
      Cfg.Telemetry = &Sinks[E == DispatchEngine::Tree ? 0 : 1];
    return Simulation(A, std::move(Cfg));
  };
  Simulation Tree = mkSim(DispatchEngine::Tree);
  Simulation Threaded = mkSim(DispatchEngine::Threaded);

  std::vector<RunResult> TreeRuns;
  for (int Run = 0; Run < Runs; ++Run) {
    RunResult TR = Tree.runOnce();
    RunResult ThR = Threaded.runOnce();
    expectSameResult(ThR, TR,
                     What + "/run" + std::to_string(Run) +
                         " [threaded vs tree]");
    TreeRuns.push_back(std::move(TR));
    if (TreeRuns.back().Starved && ThR.Starved)
      break; // Device state after starvation is equal but final.
  }
  EXPECT_EQ(Threaded.tau(), Tree.tau()) << What;
  EXPECT_EQ(Threaded.epoch(), Tree.epoch()) << What;
  EXPECT_EQ(Threaded.nvmSnapshot(), Tree.nvmSnapshot()) << What;
  if (Traced) {
    EXPECT_EQ(Sinks[1].exportChromeJson(), Sinks[0].exportChromeJson())
        << What << " [threaded trace diverged]";
  }
  return TreeRuns;
}

/// runDifferential over benchmark \p B compiled under \p Model; a null
/// \p Scenario selects the benchmark's default seeded-noise world.
std::vector<RunResult>
runDifferential(const BenchmarkDef &B, ExecModel Model, uint64_t Seed,
                const RunConfig &Base, int Runs,
                std::shared_ptr<const SensorScenario> Scenario = nullptr) {
  CompiledBenchmark CB = compileBenchmark(B, Model);
  return runDifferential(CB.Artifact, Seed, Base, Runs,
                         Scenario ? Scenario : B.scenario(Seed),
                         B.Name + "/" + execModelName(Model) + "/seed" +
                             std::to_string(Seed));
}

using Cell = std::tuple<std::string, ExecModel, uint64_t>;

class ExecImageDifferential : public ::testing::TestWithParam<Cell> {};

TEST_P(ExecImageDifferential, EnergyDrivenWithMonitors) {
  const auto &[Name, Model, Seed] = GetParam();
  RunConfig Cfg;
  Cfg.Plan = FailurePlan::energyDriven();
  Cfg.MonitorBitVector = true;
  Cfg.MonitorFormal = true;
  Cfg.RecordTrace = true;
  runDifferential(*findBenchmark(Name), Model, Seed, Cfg, /*Runs=*/5);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExecImageDifferential,
    ::testing::Combine(::testing::Values("activity", "cem", "greenhouse",
                                         "photo", "send_photo", "tire"),
                       ::testing::Values(ExecModel::Ocelot,
                                         ExecModel::JitOnly,
                                         ExecModel::AtomicsOnly),
                       ::testing::Values(1u, 17u, 4242u)),
    [](const ::testing::TestParamInfo<Cell> &Info) {
      std::string M = execModelName(std::get<1>(Info.param));
      for (char &C : M)
        if (C == '-')
          C = '_';
      return std::get<0>(Info.param) + "_" + M + "_seed" +
             std::to_string(std::get<2>(Info.param));
    });

TEST(ExecImageDifferentialFocused, PathologicalPlan) {
  // Exercises the firesBefore path (per-site injection, once per run).
  for (const char *Name : {"tire", "activity"}) {
    const BenchmarkDef &B = *findBenchmark(Name);
    CompiledBenchmark CB = compileBenchmark(B, ExecModel::JitOnly);
    RunConfig Cfg;
    Cfg.Plan = FailurePlan::pathological(pathologicalPoints(CB.Artifact));
    Cfg.Plan.setOffTime(20000, 200000);
    Cfg.MonitorBitVector = true;
    Cfg.MonitorFormal = true;
    Cfg.RecordTrace = true;
    runDifferential(B, ExecModel::JitOnly, 7, Cfg, /*Runs=*/6);
  }
}

TEST(ExecImageDifferentialFocused, RandomPlanWithStaticOmega) {
  // Exercises the omega side table (region-entry backup) under rollback.
  RunConfig Cfg;
  Cfg.Plan = FailurePlan::random(0.01);
  Cfg.Plan.setOffTime(50, 500);
  Cfg.StaticOmega = true;
  Cfg.RecordTrace = true;
  runDifferential(*findBenchmark("cem"), ExecModel::AtomicsOnly, 29, Cfg,
                  /*Runs=*/6);
}

TEST(ExecImageDifferentialFocused, TraceDrivenScenario) {
  // Inputs from a recorded trace (phase-staggered correlated channels)
  // instead of synthetic noise: the threaded engine's Input paths must
  // still agree with the tree engine bit for bit.
  std::string Error;
  std::shared_ptr<const SensorTrace> T = SensorTrace::Builder()
                                             .segment(40'000, 21)
                                             .segment(25'000, -4)
                                             .segment(60'000, 35)
                                             .segment(15'000, 250)
                                             .build(Error);
  ASSERT_TRUE(T) << Error;
  RunConfig Cfg;
  Cfg.Plan = FailurePlan::energyDriven();
  Cfg.MonitorBitVector = true;
  Cfg.MonitorFormal = true;
  Cfg.RecordTrace = true;
  for (const char *Name : {"tire", "greenhouse"})
    runDifferential(*findBenchmark(Name), ExecModel::Ocelot, 11, Cfg,
                    /*Runs=*/6, traceScenario(T));
}

TEST(ExecImageDifferentialFocused, ZeroJitterEnergyPlan) {
  // Without jitter every charge holds exactly 700 cycles above the reserve
  // and every recharge takes the same off time, so failures strike at
  // fixed phases of the program. Run it taint-off and with taint, both
  // monitors and the oracle armed (the taint loop).
  RunConfig Cfg;
  Cfg.Plan = FailurePlan::energyDriven();
  Cfg.Energy = EnergyConfig{1050, 350, 7.0, 0.0, 0.0};
  Cfg.RecordTrace = true;
  runDifferential(*findBenchmark("greenhouse"), ExecModel::Ocelot, 3, Cfg,
                  /*Runs=*/8);
  Cfg.MonitorBitVector = true;
  Cfg.MonitorFormal = true;
  Cfg.Oracle = true;
  for (const char *Name : {"greenhouse", "tire"}) {
    uint64_t Reboots = 0;
    for (const RunResult &R : runDifferential(
             *findBenchmark(Name), ExecModel::Ocelot, 3, Cfg, /*Runs=*/8))
      Reboots += R.Reboots;
    EXPECT_GT(Reboots, 0u) << Name;
  }
}

/// Compiles a hand-written program for the comparator-edge cases.
CompiledArtifact compileSource(const std::string &Src) {
  Compilation C = Toolchain().compile(Src, CompileOptions());
  EXPECT_TRUE(C.ok()) << C.status().str();
  return C.artifact();
}

/// Eight outputs (1600 cycles), then three calls (6) down to a region
/// entry (AtomicStart, 10) four frames deep: the entry's step leaves
/// 1616 cycles spent since a full charge, and saving the four frames
/// costs RegionEntryPerFrame * 4 = 32 more. \p Body is the region's body.
std::string regionEntryProgram(const std::string &Body) {
  std::string Src = "io s;\nstatic n = 0;\nfn enter() { atomic { ";
  Src += Body;
  Src += " } }\nfn f2() { enter(); }\nfn f1() { f2(); }\nfn main() {";
  for (int I = 1; I <= 8; ++I) {
    Src += " log(";
    Src += std::to_string(I);
    Src += ");";
  }
  Src += " f1(); log(n); }\n";
  return Src;
}

TEST(ExecImageDifferentialFocused, TaintedEnergyComparatorEdges) {
  // Taint, both monitors and the oracle armed: the threaded engine's taint
  // loop, whose step header counts the comparator headroom down in a local
  // and writes it back around out-of-line calls.
  RunConfig Cfg;
  Cfg.Plan = FailurePlan::energyDriven();
  Cfg.MonitorBitVector = true;
  Cfg.MonitorFormal = true;
  Cfg.Oracle = true;
  Cfg.RecordTrace = true;
  Cfg.MaxAbortsPerRegion = 40;

  // A charge holds 1632 cycles above the reserve, with no refill jitter:
  // the region entry's step leaves 16 of them, fewer than the 32 the
  // frame save costs, so the entry's non-firing consume drains the level
  // below the reserve and the next step fires inside the region. `n += 1`
  // draws 9 cycles of energy and would have fit in the 16, so its abort
  // is the drain's; it commits on the next charge. The 30-input region
  // never fits a charge, so it starves on its abort count.
  Cfg.Energy = EnergyConfig{1982, 350, 0.1, 0.0, 0.0};
  struct Case {
    const char *Body;
    bool Starves;
  };
  for (const Case &C : {Case{"n += 1;", false},
                        Case{"for i in 0..30 { n += s(); }", true}}) {
    CompiledArtifact A = compileSource(regionEntryProgram(C.Body));
    std::vector<RunResult> Runs = runDifferential(
        A, 31, Cfg, /*Runs=*/6, nullptr, std::string("region ") + C.Body);
    ASSERT_FALSE(Runs.empty());
    EXPECT_GT(Runs[0].AtomicAborts, 0u) << C.Body;
    uint64_t Commits = 0;
    bool Starved = false;
    for (const RunResult &R : Runs) {
      Commits += R.AtomicCommits;
      Starved |= R.Starved;
    }
    EXPECT_EQ(Commits > 0, !C.Starves) << C.Body;
    EXPECT_EQ(Starved, C.Starves) << C.Body;
  }

  // A capacity below the reserve refills to ReserveCycles + 1: every step
  // that costs anything fires the comparator, until the consecutive-failure
  // count exceeds MaxAbortsPerRegion and the run starves in the step
  // header, outside any region.
  Cfg.Energy = EnergyConfig{};
  Cfg.Energy.CapacityCycles = 300;
  std::vector<RunResult> Starving = runDifferential(
      *findBenchmark("tire"), ExecModel::Ocelot, 31, Cfg, /*Runs=*/3);
  ASSERT_EQ(Starving.size(), 1u);
  EXPECT_TRUE(Starving[0].Starved);
  EXPECT_EQ(Starving[0].AtomicAborts, 0u);
  EXPECT_EQ(Starving[0].Reboots, Cfg.MaxAbortsPerRegion);
}

TEST(ExecImageDifferentialFocused, BitVectorOnlyMonitors) {
  // With the formal monitor off, the threaded engine runs its taint-off
  // checked (non-Hot) loop with the bit-vector detector armed, instead of
  // the taint loop.
  RunConfig Cfg;
  Cfg.Plan = FailurePlan::energyDriven();
  Cfg.MonitorBitVector = true;
  Cfg.RecordTrace = true;
  for (const char *Name : {"tire", "cem"})
    runDifferential(*findBenchmark(Name), ExecModel::Ocelot, 23, Cfg,
                    /*Runs=*/6);
}

TEST(ExecImageDifferentialFocused, HotLoopNoMonitors) {
  // Continuous power, no monitors, no trace: the specialization every
  // engine uses for throughput measurements (including the trace-off
  // Output fast path).
  RunConfig Cfg;
  for (const char *Name : {"activity", "send_photo"})
    runDifferential(*findBenchmark(Name), ExecModel::JitOnly, 5, Cfg,
                    /*Runs=*/4);
}

TEST(ExecImageDifferentialFocused, TracedRunsStayPinned) {
  // Telemetry attached (per-engine sinks): the trace hooks must not
  // perturb execution — the differential pinning holds with tracing on —
  // and the event streams of the tree and threaded engines must export
  // identical bytes.
  const BenchmarkDef &B = *findBenchmark("tire");
  const CompiledArtifact A = compileBenchmark(B, ExecModel::Ocelot).Artifact;
  const DispatchEngine Engines[2] = {DispatchEngine::Tree,
                                     DispatchEngine::Threaded};
  TraceSink Sinks[2];
  RunResult Results[2];
  for (int E = 0; E < 2; ++E) {
    RunConfig Cfg;
    Cfg.Plan = FailurePlan::energyDriven();
    Cfg.MonitorBitVector = true;
    Cfg.MonitorFormal = true;
    Cfg.RecordTrace = true;
    Cfg.Sensors = B.scenario(23);
    Cfg.Seed = 23;
    Cfg.Dispatch = Engines[E];
    Cfg.Telemetry = &Sinks[E];
    Simulation Sim(A, std::move(Cfg));
    for (int Run = 0; Run < 4; ++Run)
      Results[E] = Sim.runOnce();
  }
  expectSameResult(Results[1], Results[0], "traced [threaded vs tree]");
  EXPECT_GT(Sinks[0].size(), 0u);
  EXPECT_EQ(Sinks[1].exportChromeJson(), Sinks[0].exportChromeJson())
      << "threaded trace diverged";
}

TEST(ExecImageDifferentialFocused, TrapsMatch) {
  // Each program ends its first run with the given trap on every engine,
  // in the Hot loop (which takes fused pairs) and in the taint loop (which
  // dispatches every PC's plain code). INT64_MIN / -1 and INT64_MIN % -1
  // would raise SIGFPE on the host. The last two cases trap inside a
  // fused pair, so each also pins where its trapping PC sits in the image.
  enum class Slot { Plain, Head, Tail };
  const struct {
    const char *Src;
    const char *Trap;
    Slot At;
  } Cases[] = {
      {"static a: [int; 2];\nfn main() { let i = 5; a[i] = 1; }",
       "array index out of bounds in main", Slot::Plain},
      {"fn main() { let a = -9223372036854775807 - 1; let b = -1;\n"
       "  log(a / b); }",
       "integer overflow in division at main@6", Slot::Plain},
      {"fn main() { let a = -9223372036854775807 - 1; let b = -1;\n"
       "  log(a % b); }",
       "integer overflow in division at main@6", Slot::Plain},
      {"fn main() { let a = -9223372036854775807 - 1; let b = -1;\n"
       "  let q = a / b; let r = q + 1; log(r); }",
       "integer overflow in division at main@6", Slot::Head},
      {"static a: [int; 4];\nfn main() { let i = 1; let j = 9;\n"
       "  let x = a[i]; let y = a[j]; log(x + y); }",
       "array index out of bounds in main", Slot::Tail},
  };
  for (const auto &Case : Cases) {
    Compilation C = Toolchain().compile(Case.Src, CompileOptions());
    ASSERT_TRUE(C.ok()) << C.status().str();
    const ExecutableImage &Img = C.artifact().image();
    for (bool Taint : {false, true})
      for (DispatchEngine E :
           {DispatchEngine::Tree, DispatchEngine::Threaded}) {
        RunConfig Cfg;
        Cfg.Dispatch = E;
        Cfg.MonitorFormal = Taint;
        Simulation Sim(C.artifact(), std::move(Cfg));
        RunResult R = Sim.runOnce();
        EXPECT_FALSE(R.Completed) << Case.Src;
        EXPECT_EQ(R.Trap, Case.Trap) << Case.Src;
        // main is straight-line, so the trapping instruction is the
        // Steps-th from its entry (the step header charges it first).
        ASSERT_GT(R.Steps, 0u) << Case.Src;
        const uint32_t Pc =
            Img.mainEntryPc() + static_cast<uint32_t>(R.Steps) - 1;
        const Slot At = Img.isFusedHead(Pc)                  ? Slot::Head
                        : Pc > 0 && Img.isFusedHead(Pc - 1) ? Slot::Tail
                                                             : Slot::Plain;
        EXPECT_EQ(At, Case.At) << Case.Src << " trapping pc " << Pc;
      }
  }
}

// -- Image construction ----------------------------------------------------

/// Walks the program in layout order next to the image, checking the
/// linearization, target resolution, folded costs and side tables.
void checkImageAgainstProgram(const CompiledArtifact &A) {
  const Program &P = A.program();
  const ExecutableImage &Img = A.image();
  const MonitorPlan &Plan = A.monitorPlan();

  size_t Expected = P.countInstructions();
  ASSERT_EQ(Img.size(), Expected);
  ASSERT_EQ(Img.costs().size(), Expected);

  uint32_t Pc = 0;
  uint32_t NextInputOrd = 0;
  uint32_t Markers = 0;
  for (int F = 0; F < P.numFunctions(); ++F) {
    const Function *Fn = P.function(F);
    EXPECT_EQ(Img.entryPc(F), Pc) << Fn->name();
    EXPECT_EQ(Img.func(F).NumRegs, static_cast<uint32_t>(Fn->numRegs()));
    for (int B = 0; B < Fn->numBlocks(); ++B) {
      for (const Instruction &I : Fn->block(B)->instructions()) {
        const FlatInst &FI = Img.code()[Pc];
        ASSERT_EQ(FI.Op, I.Op) << "pc " << Pc;
        EXPECT_EQ(FI.Label, I.Label) << "pc " << Pc;
        EXPECT_EQ(FI.Func, F) << "pc " << Pc;
        EXPECT_EQ(FI.Block, B) << "pc " << Pc;

        // Cost folding matches the original switch.
        EXPECT_EQ(Img.costs()[Pc], MachineCosts.costOf(I)) << "pc " << Pc;
        // Each step-cost table is the cost table with the sentinel at
        // exactly the PCs its watch set names.
        for (unsigned W = 0; W <= 7; ++W) {
          const bool Watched =
              (W & ExecutableImage::WatchEvery) ||
              ((W & ExecutableImage::WatchUseChecks) && FI.HasUseCheck) ||
              ((W & ExecutableImage::WatchUseRegs) && FI.UseRegsCount);
          EXPECT_EQ(Img.stepCosts(W)[Pc],
                    Watched ? ExecutableImage::WatchedStep : Img.costs()[Pc])
              << "pc " << Pc << " watch " << W;
        }

        // Branch targets resolve to the first instruction of the named
        // block in the same function.
        if (I.Op == Opcode::Br || I.Op == Opcode::CondBr) {
          ASSERT_LT(FI.Target, Img.size());
          const FlatInst &T = Img.code()[FI.Target];
          EXPECT_EQ(T.Func, F) << "pc " << Pc;
          EXPECT_EQ(T.Block, I.Target) << "pc " << Pc;
          EXPECT_TRUE(FI.Target == Img.func(F).EntryPc ||
                      Img.code()[FI.Target - 1].Block != T.Block ||
                      Img.code()[FI.Target - 1].Func != F)
              << "target is not a block leader, pc " << Pc;
        }
        if (I.Op == Opcode::CondBr) {
          ASSERT_LT(FI.Target2, Img.size());
          EXPECT_EQ(Img.code()[FI.Target2].Block, I.Target2) << "pc " << Pc;
        }
        // Calls resolve to the callee's entry with its register count.
        if (I.Op == Opcode::Call) {
          EXPECT_EQ(FI.Callee, I.Callee);
          EXPECT_EQ(FI.CalleeEntryPc, Img.entryPc(I.Callee));
          EXPECT_EQ(FI.CalleeNumRegs,
                    static_cast<uint32_t>(
                        P.function(I.Callee)->numRegs()));
        }
        // Argument spans preserve the operand list.
        if (I.Op == Opcode::Call || I.Op == Opcode::Output) {
          ASSERT_EQ(FI.ArgsCount, static_cast<uint32_t>(I.Args.size()));
          const Operand *Args = Img.args(FI);
          for (size_t AI = 0; AI < I.Args.size(); ++AI)
            EXPECT_TRUE(Args[AI] == I.Args[AI]) << "pc " << Pc;
        }

        // Monitor side tables are exactly as dense as the plan's maps.
        InstrRef Site(F, I.Label);
        EXPECT_EQ(FI.HasUseCheck, Plan.UseChecks.count(Site) != 0)
            << "pc " << Pc;
        auto UC = Plan.UseChecks.find(Site);
        if (UC != Plan.UseChecks.end()) {
          // The bit-vector check list keeps the plan's set order.
          std::span<const uint32_t> Ords = Img.useChecks(FI);
          ASSERT_EQ(Ords.size(), UC->second.size()) << "pc " << Pc;
          size_t K = 0;
          for (const InstrRef &In : UC->second) {
            EXPECT_TRUE(Img.inputSite(Ords[K]) == In) << "pc " << Pc;
            EXPECT_EQ(Img.inputOrdinal(In), Ords[K]) << "pc " << Pc;
            ++K;
          }
        }
        // Input ordinals number the Input instructions densely in PC
        // order: each is its operation's bit position.
        if (I.Op == Opcode::Input) {
          EXPECT_EQ(FI.Ord, NextInputOrd++) << "pc " << Pc;
          EXPECT_TRUE(Img.inputSite(FI.Ord) == Site) << "pc " << Pc;
          EXPECT_EQ(Img.inputOrdinal(Site), FI.Ord) << "pc " << Pc;
        }
        // A Consistent marker's ordinal names its (set, label).
        if (I.Op == Opcode::Consistent) {
          ASSERT_LT(FI.Ord, Img.numMarkers()) << "pc " << Pc;
          EXPECT_EQ(Img.marker(FI.Ord), (ConsistentMarker{I.SetId, I.Label}))
              << "pc " << Pc;
          EXPECT_EQ(Img.markerOrdinal(I.SetId, I.Label), FI.Ord)
              << "pc " << Pc;
          ++Markers;
        }
        auto UR = Plan.UseRegs.find(Site);
        size_t WantRegs = UR == Plan.UseRegs.end() ? 0 : UR->second.size();
        ASSERT_EQ(FI.UseRegsCount, WantRegs) << "pc " << Pc;
        if (WantRegs) {
          std::span<const uint32_t> Regs = Img.useRegs(FI);
          size_t RI = 0;
          for (int Reg : UR->second)
            EXPECT_EQ(Regs[RI++], static_cast<uint32_t>(Reg)) << "pc " << Pc;
        }

        // AtomicStart carries its region's omega set, in set order.
        if (I.Op == Opcode::AtomicStart) {
          const RegionInfo *Info = nullptr;
          for (const RegionInfo &Reg : A.regions())
            if (Reg.RegionId == I.RegionId)
              Info = &Reg;
          size_t WantOmega = Info ? Info->Omega.size() : 0;
          ASSERT_EQ(FI.OmegaCount, WantOmega) << "pc " << Pc;
          if (Info) {
            const int32_t *Omega = Img.omegaGlobals(FI);
            size_t OI = 0;
            for (int G : Info->Omega)
              EXPECT_EQ(Omega[OI++], G) << "pc " << Pc;
          }
        }
        ++Pc;
      }
    }
    EXPECT_EQ(Img.func(F).EndPc, Pc) << Fn->name();
  }

  // Marker ordinals are dense and strictly sorted by (set, label), so
  // each set's markers are consecutive and in label order.
  EXPECT_LE(Img.numMarkers(), Markers);
  for (uint32_t M = 1; M < Img.numMarkers(); ++M)
    EXPECT_LT(Img.marker(M - 1), Img.marker(M)) << "marker " << M;

  // Every member chain of a consistent set ends at a numbered input.
  EXPECT_LE(NextInputOrd, Img.numInputOrdinals());
  for (const ConsistentSetPlan &S : Plan.Sets)
    for (const ProvChain &C : S.Members)
      EXPECT_NE(Img.inputOrdinal(C.back()), ExecutableImage::NoInputOrdinal);

  // NVM layout: contiguous, in declaration order, sizes preserved.
  uint32_t Cell = 0;
  for (int G = 0; G < P.numGlobals(); ++G) {
    EXPECT_EQ(Img.globalBase(G), Cell);
    EXPECT_EQ(Img.globalSize(G), static_cast<uint32_t>(P.global(G).Size));
    Cell += Img.globalSize(G);
  }
  EXPECT_EQ(Img.nvmCells(), Cell);
}

TEST(ExecImage, ConstructionMatchesProgramAcrossBenchmarks) {
  for (const BenchmarkDef &B : allBenchmarks())
    for (ExecModel Model :
         {ExecModel::Ocelot, ExecModel::JitOnly, ExecModel::AtomicsOnly}) {
      SCOPED_TRACE(B.Name + "/" + execModelName(Model));
      checkImageAgainstProgram(compileBenchmark(B, Model).Artifact);
    }
}

TEST(ExecImage, MainEntryAndDisassembly) {
  CompileOptions Opts;
  Opts.Model = ExecModel::Ocelot;
  Compilation C = Toolchain().compile(
      "io s;\nstatic n = 0;\n"
      "fn add(a: int, b: int) -> int { return a + b; }\n"
      "fn main() { let fresh x = s(); n = add(n, 1); if x > 0 { log(x); } }",
      Opts);
  ASSERT_TRUE(C.ok()) << C.status().str();
  const CompiledArtifact &A = C.artifact();
  const ExecutableImage &Img = A.image();

  EXPECT_EQ(Img.mainEntryPc(), Img.entryPc(A.program().mainFunction()));
  EXPECT_EQ(Img.mainNumRegs(),
            static_cast<uint32_t>(
                A.program().function(A.program().mainFunction())->numRegs()));

  std::string Dis = Img.disassemble(A.program());
  EXPECT_NE(Dis.find("fn main"), std::string::npos);
  EXPECT_NE(Dis.find("fn add"), std::string::npos);
  EXPECT_NE(Dis.find("sensor s"), std::string::npos);
  EXPECT_NE(Dis.find("cost=80"), std::string::npos);  // input cost folded
  EXPECT_NE(Dis.find("-> pc"), std::string::npos);    // resolved targets
  EXPECT_NE(Dis.find("monitor=fresh-use"), std::string::npos);
  // Both monitors' use of x sends its steps through the full step header.
  EXPECT_NE(Dis.find(" watched=bit-vector+formal monitor=fresh-use"),
            std::string::npos);
}

// -- Superinstruction fusion pass ------------------------------------------

/// Re-derives the legality of every fusion decision in \p A's image from
/// public state: structural rules (no leader tails, no cross-function or
/// cross-region pairs, plain tail codes, non-overlap), the per-pattern
/// opcode/dataflow conditions, and the invariant that fusion left the
/// per-PC side tables (costs, monitor flags, omega spans, branch targets)
/// untouched.
void checkThreadedView(const CompiledArtifact &A) {
  const ExecutableImage &Img = A.image();
  ASSERT_EQ(Img.threadedOps().size(), Img.code().size());

  uint32_t Fused = 0;
  for (uint32_t Pc = 0; Pc < Img.size(); ++Pc) {
    const FlatInst &FI = Img.code()[Pc];

    // Region bounds are in no pattern, as head or tail.
    if (FI.Op == Opcode::AtomicStart || FI.Op == Opcode::AtomicEnd) {
      EXPECT_FALSE(Img.isFusedHead(Pc)) << "pc " << Pc;
      if (Pc > 0) {
        EXPECT_FALSE(Img.isFusedHead(Pc - 1)) << "pc " << Pc - 1;
      }
    }
    // A leader is never a pair's tail: every control transfer (branch,
    // return, power-failure resume) must land on a plain dispatch code.
    if (Img.isLeader(Pc) && Pc > 0) {
      EXPECT_FALSE(Img.isFusedHead(Pc - 1)) << "leader pc " << Pc;
    }

    if (!Img.isFusedHead(Pc)) {
      // Non-head slots (including tails) carry their opcode verbatim.
      EXPECT_EQ(static_cast<int>(Img.threadedOpAt(Pc)),
                static_cast<int>(FI.Op))
          << "pc " << Pc;
      continue;
    }

    ++Fused;
    ASSERT_LT(Pc + 1, Img.size()) << "fused head at the last pc";
    const FlatInst &Tail = Img.code()[Pc + 1];
    EXPECT_FALSE(Img.isLeader(Pc + 1)) << "pc " << Pc;
    EXPECT_EQ(FI.Func, Tail.Func) << "pc " << Pc;
    EXPECT_FALSE(Img.isFusedHead(Pc + 1)) << "pc " << Pc; // non-overlap

    // The row's opcode pair and (for forwarding rows) the dataflow
    // condition: the tail operand reads the head's destination.
    const FusedPair &Row = fusedPair(Img.threadedOpAt(Pc));
    EXPECT_EQ(FI.Op, Row.Head) << "pc " << Pc;
    EXPECT_EQ(Tail.Op, Row.Tail) << "pc " << Pc;
    if (Row.Fwd != FuseFwd::Any) {
      const Operand &O = Row.Fwd == FuseFwd::A ? Tail.A : Tail.B;
      ASSERT_GE(FI.Dst, 0) << "pc " << Pc;
      EXPECT_TRUE(O.isReg() && O.Reg == FI.Dst) << "pc " << Pc;
    }

    // Fusion is a side table: both slots keep their folded costs and
    // monitor/omega side-table state, and the tail's branch targets (if
    // any) still resolve to leaders.
    EXPECT_EQ(Img.costs()[Pc], MachineCosts.costOfOp(FI.Op)) << "pc " << Pc;
    EXPECT_EQ(Img.costs()[Pc + 1], MachineCosts.costOfOp(Tail.Op))
        << "pc " << Pc + 1;
    if (Tail.Op == Opcode::Br || Tail.Op == Opcode::CondBr) {
      ASSERT_LT(Tail.Target, Img.size());
      EXPECT_TRUE(Img.isLeader(Tail.Target)) << "pc " << Pc;
      if (Tail.Op == Opcode::CondBr) {
        ASSERT_LT(Tail.Target2, Img.size());
        EXPECT_TRUE(Img.isLeader(Tail.Target2)) << "pc " << Pc;
      }
    }
  }
  EXPECT_EQ(Fused, Img.fusedPairCount());
}

TEST(FusionPass, LegalOnAllBenchmarks) {
  uint32_t TotalFused = 0;
  for (const BenchmarkDef &B : allBenchmarks())
    for (ExecModel Model :
         {ExecModel::Ocelot, ExecModel::JitOnly, ExecModel::AtomicsOnly}) {
      SCOPED_TRACE(B.Name + "/" + execModelName(Model));
      CompiledBenchmark CB = compileBenchmark(B, Model);
      checkThreadedView(CB.Artifact);
      TotalFused += CB.Artifact.image().fusedPairCount();
    }
  // The pass exists because the benchmarks exhibit these shapes; a zero
  // here means the pattern table silently stopped matching real code.
  EXPECT_GT(TotalFused, 0u);
}

/// Compiles \p Src under \p Model and returns the artifact, asserting
/// success.
CompiledArtifact compileSource(const std::string &Src, ExecModel Model) {
  CompileOptions Opts;
  Opts.Model = Model;
  Compilation C = Toolchain().compile(Src, Opts);
  EXPECT_TRUE(C.ok()) << C.status().str();
  return C.artifact();
}

TEST(FusionPass, FusesAdjacentDataflowPairs) {
  // `let x = s(); n = x * 2 + 1;` lowers to input/mov/bin/bin/storeg:
  // the greedy pass forms input+mov over the sample and its copy, then
  // bin+bin over the arithmetic -- both forwarding patterns, back to back.
  CompiledArtifact A = compileSource(
      "io s;\nstatic n = 0;\n"
      "fn main() { let x = s(); n = x * 2 + 1; log(n); }",
      ExecModel::JitOnly);
  checkThreadedView(A);
  const ExecutableImage &Img = A.image();
  EXPECT_EQ(Img.fusedPairCount(), 2u);
  bool SawInputMov = false;
  bool SawBinBin = false;
  for (uint32_t Pc = 0; Pc < Img.size(); ++Pc) {
    SawInputMov |= Img.threadedOpAt(Pc) == ThreadedOp::FuseInputMov;
    SawBinBin |= Img.threadedOpAt(Pc) == ThreadedOp::FuseBinBin;
  }
  EXPECT_TRUE(SawInputMov);
  EXPECT_TRUE(SawBinBin);
}

TEST(FusionPass, NeverFusesIntoCallResume) {
  // The instruction after a Call is a leader (Ret lands there), so the
  // pair (instruction-before-resume, resume) must never form even when
  // the opcodes would otherwise match a pattern.
  CompiledArtifact A = compileSource(
      "static n = 0;\nfn id(d: int) -> int { return d; }\n"
      "fn main() { let a = id(2); let b = a + 1; n = b; log(n); }",
      ExecModel::JitOnly);
  checkThreadedView(A);
  const ExecutableImage &Img = A.image();
  bool SawCall = false;
  for (uint32_t Pc = 0; Pc + 1 < Img.size(); ++Pc)
    if (Img.code()[Pc].Op == Opcode::Call) {
      SawCall = true;
      EXPECT_TRUE(Img.isLeader(Pc + 1)) << "pc " << Pc;
      EXPECT_FALSE(Img.isFusedHead(Pc)) << "pc " << Pc;
    }
  EXPECT_TRUE(SawCall);
}

TEST(FusionPass, NeverFusesAcrossRegionBounds) {
  // bin+storeg shapes on both sides of the region bounds: the pairs
  // inside the region may fuse, but AtomicStart/AtomicEnd never join one.
  CompiledArtifact A = compileSource(
      "static n = 0;\nfn main() { let x = 1;\n"
      "  atomic { let y = x * 2; n = y; }\n  let z = n + 1; n = z;\n"
      "  log(n); }",
      ExecModel::AtomicsOnly);
  checkThreadedView(A); // includes the region-bound assertions
  const ExecutableImage &Img = A.image();
  bool SawRegion = false;
  for (uint32_t Pc = 0; Pc < Img.size(); ++Pc)
    SawRegion |= Img.code()[Pc].Op == Opcode::AtomicStart;
  EXPECT_TRUE(SawRegion);
  EXPECT_GT(Img.fusedPairCount(), 0u);
}

TEST(FusionPass, NeverFusesAcrossBlockLeaders) {
  // The join block after the `if` starts at a leader; the would-be pair
  // spanning (last-instruction-of-then, join) must stay unfused while the
  // same opcode shapes fuse inside straight-line blocks.
  CompiledArtifact A = compileSource(
      "io s;\nstatic n = 0;\n"
      "fn main() { let x = s(); if x > 0 { n = x + 1; } n = n + 2;\n"
      "  log(n); }",
      ExecModel::JitOnly);
  checkThreadedView(A);
  const ExecutableImage &Img = A.image();
  // No branch target is ever a pair's *tail* (it may head its own pair:
  // jumping to a fused head executes both halves, which is the point).
  for (uint32_t Pc = 0; Pc < Img.size(); ++Pc) {
    const FlatInst &FI = Img.code()[Pc];
    if (FI.Op == Opcode::Br || FI.Op == Opcode::CondBr) {
      if (FI.Target > 0) {
        EXPECT_FALSE(Img.isFusedHead(FI.Target - 1))
            << "target of pc " << Pc << " is a fused tail";
      }
      if (FI.Op == Opcode::CondBr && FI.Target2 > 0) {
        EXPECT_FALSE(Img.isFusedHead(FI.Target2 - 1))
            << "target of pc " << Pc << " is a fused tail";
      }
    }
  }
}

// -- The split step header ---------------------------------------------------
// The checked threaded loops charge a step with one compare of its
// step-cost table entry against the comparator headroom. A watched PC
// (sentinel cost) or low energy sends the step to the slow step, which
// runs the reference header. These cases pin the edges of that split
// against the tree engine.

TEST(SplitStepHeader, UseCheckAtAFusedTail) {
  // `y = c + x` is the tail of a mov+bin pair and a bit-vector use-check
  // site: the pair's tail step leaves for the slow step, which runs the
  // check and dispatches the tail's plain code. A failure at `log(i)`
  // clears x's bit, so some checks fail.
  CompiledArtifact A = compileSource(
      "io s;\nstatic n = 0;\nfn main() { for i in 0..8 { let fresh x = s();\n"
      "  log(i); let c = 3; let y = c + x; n += y; } log(n); }\n",
      ExecModel::JitOnly);
  const ExecutableImage &Img = A.image();
  bool CheckAtTail = false;
  for (uint32_t Pc = 1; Pc < Img.size(); ++Pc)
    CheckAtTail |= Img.isFusedHead(Pc - 1) && Img.code()[Pc].HasUseCheck;
  ASSERT_TRUE(CheckAtTail);

  RunConfig Cfg;
  Cfg.MonitorBitVector = true;
  Cfg.RecordTrace = true;
  runDifferential(A, 3, Cfg, /*Runs=*/2, nullptr, "fused-tail check",
                  /*Traced=*/true);
  Cfg.Plan = FailurePlan::energyDriven();
  Cfg.Energy = EnergyConfig{700, 350, 7.0, 0.25, 0.2};
  size_t Flagged = 0;
  for (const RunResult &R :
       runDifferential(A, 3, Cfg, /*Runs=*/6, nullptr,
                       "fused-tail check/energy", /*Traced=*/true))
    Flagged += R.Violations.size();
  EXPECT_GT(Flagged, 0u);
}

TEST(SplitStepHeader, WatchedStepDrainsTheHeadroom) {
  // `log(x)` (200 cycles) is watched by both monitors. The steps before
  // it cost 281 (input 80, mov 1, fresh 0, log 200), and without jitter a
  // charge holds Capacity - 350 cycles above the reserve, so the watched
  // step meets a headroom of Capacity - 631. At 200 it fires on the
  // watched step itself (cost >= headroom); at 201 it runs, and the
  // 1-cycle branch after it fires. MaxAbortsPerRegion = 0 starves the run
  // at its first failure, so Steps counts the steps before that failure.
  CompiledArtifact A = compileSource(
      "io s;\nfn main() { let fresh x = s(); log(1); log(x); }\n",
      ExecModel::JitOnly);
  const ExecutableImage &Img = A.image();
  const FlatInst &Use = Img.code()[Img.mainEntryPc() + 4];
  ASSERT_TRUE(Use.Op == Opcode::Output && Use.HasUseCheck &&
              Use.UseRegsCount > 0);

  for (int Monitors = 0; Monitors < 4; ++Monitors) {
    RunConfig Cfg;
    Cfg.Plan = FailurePlan::energyDriven();
    Cfg.MonitorBitVector = Monitors & 1;
    Cfg.MonitorFormal = Monitors & 2;
    Cfg.Oracle = Monitors == 3;
    Cfg.RecordTrace = true;
    Cfg.MaxAbortsPerRegion = 0;
    for (const auto &[Capacity, WantSteps] :
         {std::pair<uint64_t, uint64_t>{831, 4}, {832, 5}}) {
      Cfg.Energy = EnergyConfig{Capacity, 350, 7.0, 0.0, 0.0};
      const std::string What = "monitors " + std::to_string(Monitors) +
                               " capacity " + std::to_string(Capacity);
      std::vector<RunResult> Runs =
          runDifferential(A, 5, Cfg, /*Runs=*/1, nullptr, What);
      ASSERT_EQ(Runs.size(), 1u);
      EXPECT_TRUE(Runs[0].Starved) << What;
      EXPECT_EQ(Runs[0].Steps, WantSteps) << What;
      EXPECT_EQ(Runs[0].Reboots, 0u) << What;
    }
  }
}

TEST(SplitStepHeader, OnlyBackToBackFailuresStarve) {
  // MaxAbortsPerRegion = 1 under JIT: failures with steps between them
  // never starve a run, two with no step between them do. The threaded
  // engine restarts its count only when Steps moved since the last
  // failure, where the tree engine resets it on every step.
  RunConfig Cfg;
  Cfg.Plan = FailurePlan::energyDriven();
  Cfg.MonitorBitVector = true;
  Cfg.RecordTrace = true;
  Cfg.MaxAbortsPerRegion = 1;
  CompiledArtifact A = compileSource(
      "fn main() { log(1); log(2); log(3); log(4); log(5); log(6); }\n",
      ExecModel::JitOnly);

  // 350 cycles per charge: each holds one or two 200-cycle logs.
  Cfg.Energy = EnergyConfig{700, 350, 7.0, 0.0, 0.0};
  std::vector<RunResult> Progress =
      runDifferential(A, 7, Cfg, /*Runs=*/2, nullptr, "progress");
  for (const RunResult &R : Progress) {
    EXPECT_TRUE(R.Completed);
    EXPECT_GE(R.Reboots, 2u);
  }

  // 150 cycles per charge: the first log never fits, so the second
  // failure follows the first with no step between them.
  Cfg.Energy = EnergyConfig{500, 350, 7.0, 0.0, 0.0};
  std::vector<RunResult> Starving =
      runDifferential(A, 7, Cfg, /*Runs=*/2, nullptr, "back to back");
  ASSERT_EQ(Starving.size(), 1u);
  EXPECT_TRUE(Starving[0].Starved);
  EXPECT_EQ(Starving[0].Reboots, 1u);
}

TEST(SplitStepHeader, ProfiledRunCountsEveryStep) {
  // The profiler watches every PC, so each step runs the slow step, which
  // counts it once. Two inputs per region let failures abort regions
  // part-way, so re-executed PCs count more than once. The per-PC counts
  // were recorded from the engine with the full per-step header.
  CompiledArtifact A = compileSource(
      "io s;\nstatic n = 0;\nstatic m = 0;\nfn main() {\n"
      "  for i in 0..6 { atomic { let x = s(); let z = s();\n"
      "    let y = x * 3 + z; n += y + i; m = n - 1; } }\n  log(n); }\n",
      ExecModel::AtomicsOnly);
  PcProfile Prof;
  Prof.prepare(A.image().size(), static_cast<size_t>(NumOpcodes));
  RunConfig Cfg;
  Cfg.Plan = FailurePlan::energyDriven();
  Cfg.Energy = EnergyConfig{700, 350, 7.0, 0.25, 0.2};
  Cfg.MonitorBitVector = true;
  Cfg.Seed = 9;
  Cfg.Profile = &Prof;
  Simulation Sim(A, Cfg);
  uint64_t Steps = 0;
  for (int Run = 0; Run < 3; ++Run) {
    const RunResult R = Sim.runOnce();
    Steps += R.Steps;
    EXPECT_EQ(Prof.Steps, Steps) << "run " << Run;
  }
  std::vector<uint64_t> Want(A.image().size(), 3);
  for (uint32_t Pc : {7u, 8u, 79u, 80u, 97u, 98u})
    Want[Pc] = 4;
  for (uint32_t Pc : {43u, 44u, 61u})
    Want[Pc] = 5;
  Want[25] = Want[26] = 6;
  Want[62] = 4;
  EXPECT_EQ(Prof.PcCounts, Want);
  // A pair is two straight-line steps within one power cycle. Of these
  // runs' 20 failures, 10 resume at the PC right after the last step taken;
  // those steps pair with nothing across the off-period (the sum read 336
  // while the previous PC outlived a failure).
  EXPECT_EQ(std::accumulate(Prof.PairCounts.begin(), Prof.PairCounts.end(),
                            uint64_t{0}),
            326u);
  // The tree engine does not profile; the two engines still agree.
  Cfg.Profile = nullptr;
  runDifferential(A, 9, Cfg, /*Runs=*/3, nullptr, "profiled program");
}

TEST(SplitStepHeader, BitVectorWithoutEnergy) {
  // No energy model: the headroom starts at ~0, so only the bit vector's
  // sentinels leave the fast header. Each check is a trace event, so the
  // traces pin every one of them under continuous power.
  RunConfig Cfg;
  Cfg.MonitorBitVector = true;
  Cfg.RecordTrace = true;
  for (const char *Name : {"tire", "cem", "greenhouse"}) {
    const BenchmarkDef &B = *findBenchmark(Name);
    for (ExecModel Model : {ExecModel::Ocelot, ExecModel::JitOnly}) {
      CompiledBenchmark CB = compileBenchmark(B, Model);
      runDifferential(CB.Artifact, 13, Cfg, /*Runs=*/3, B.scenario(13),
                      B.Name + "/" + execModelName(Model) + "/continuous",
                      /*Traced=*/true);
    }
  }
}

// -- Kind-less operand handling (lowering-bug detector) --------------------

#ifdef NDEBUG
TEST(ExecImage, KindlessOperandTrapsInsteadOfYieldingZero) {
  // Lowering never emits a kind-less operand in an evaluated position;
  // surgically create one to pin the release-mode behavior: a structured
  // trap, not a silent RtValue(0). (Debug builds assert instead.)
  DiagnosticEngine Diags;
  CompileOptions Opts;
  Opts.Model = ExecModel::JitOnly;
  CompileResult CR = detail::runCompilePipeline(
      "static n = 0;\nfn main() { let x = 1; n = x; log(n); }", Opts, Diags);
  ASSERT_TRUE(CR.Ok) << Diags.str();

  bool Mutated = false;
  Function *Main = CR.Prog->function(CR.Prog->mainFunction());
  for (int B = 0; B < Main->numBlocks() && !Mutated; ++B)
    for (Instruction &I : Main->block(B)->instructions())
      if (I.Op == Opcode::Mov) {
        I.A = Operand::none();
        Mutated = true;
        break;
      }
  ASSERT_TRUE(Mutated) << "no mov to corrupt";

  // White-box: a surgically corrupted Program has no artifact, so this
  // test constructs the Interpreter directly (the runtime-internal path).
  for (DispatchEngine E : {DispatchEngine::Tree, DispatchEngine::Threaded}) {
    RunConfig Cfg;
    Cfg.Dispatch = E;
    Interpreter I(*CR.Prog, Cfg, &CR.Monitor, &CR.Regions);
    RunResult R = I.runOnce();
    EXPECT_FALSE(R.Completed);
    EXPECT_NE(R.Trap.find("operand without a kind"), std::string::npos)
        << R.Trap;
    EXPECT_NE(R.Trap.find("lowering bug"), std::string::npos) << R.Trap;
  }
}
#endif // NDEBUG

} // namespace
