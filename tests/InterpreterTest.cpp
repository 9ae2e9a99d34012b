//===- InterpreterTest.cpp - Execution model semantics ----------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantics tests for the JIT + Atomics execution model (Appendix H):
/// arithmetic/control/calls/references/arrays, JIT resume without
/// re-execution, atomic rollback with undo logging (idempotent
/// re-execution), nested-region flattening, static-omega equivalence,
/// logical-time advancement across reboots, traps, and starvation.
///
//===----------------------------------------------------------------------===//

#include "ocelot/Toolchain.h"
#include "runtime/Simulation.h"

#include <gtest/gtest.h>

#include <set>

using namespace ocelot;

namespace {

CompiledArtifact compile(const std::string &Src,
                         ExecModel Model = ExecModel::AtomicsOnly) {
  CompileOptions Opts;
  Opts.Model = Model;
  Compilation C = Toolchain().compile(Src, Opts);
  EXPECT_TRUE(C.ok()) << C.status().str();
  return C.artifact();
}

/// Runs continuously once and returns the Output events.
std::vector<OutputEvent> outputsOf(const std::string &Src) {
  CompiledArtifact A = compile(Src);
  RunConfig Cfg;
  Cfg.RecordTrace = true;
  Simulation I(A, Cfg);
  RunResult Res = I.runOnce();
  EXPECT_TRUE(Res.Completed) << Res.Trap;
  return Res.TraceData.Outputs;
}

TEST(Interp, ArithmeticAndComparison) {
  auto Out = outputsOf(
      "fn main() { log(7 + 3, 7 - 3, 7 * 3, 7 / 3, 7 % 3); "
      "log(1 << 4, 256 >> 2, 6 & 3, 6 | 3, 6 ^ 3); "
      "let b = 3 < 4 && 4 <= 4 || false; if b { log(1); } }");
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_EQ(Out[0].Args, (std::vector<int64_t>{10, 4, 21, 2, 1}));
  EXPECT_EQ(Out[1].Args, (std::vector<int64_t>{16, 64, 2, 7, 5}));
  EXPECT_EQ(Out[2].Args, (std::vector<int64_t>{1}));
}

TEST(Interp, UnaryOperators) {
  auto Out = outputsOf("fn main() { let x = 5; log(-x, ~x); "
                       "let b = !(x > 9); if b { log(1); } }");
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0].Args, (std::vector<int64_t>{-5, -6}));
}

TEST(Interp, CallsReturnsAndRecursionFreeNesting) {
  auto Out = outputsOf("fn add(a: int, b: int) -> int { return a + b; }\n"
                       "fn twice(x: int) -> int { return add(x, x); }\n"
                       "fn main() { log(twice(add(2, 3))); }");
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].Args[0], 10);
}

TEST(Interp, ReferencesWriteThrough) {
  auto Out = outputsOf("fn bump(r: &int) { *r = *r + 10; }\n"
                       "fn main() { let c = 5; bump(&c); bump(&c); "
                       "log(c); }");
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].Args[0], 25);
}

TEST(Interp, ArraysAndLoops) {
  auto Out = outputsOf("fn main() { let a = [0; 6]; for i in 0..6 { "
                       "a[i] = i * i; } let mut s = 0; for i in 0..6 { "
                       "s = s + a[i]; } log(s); }");
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].Args[0], 0 + 1 + 4 + 9 + 16 + 25);
}

TEST(Interp, StaticsPersistAcrossRuns) {
  CompiledArtifact A = compile("static n = 0;\nfn main() { n += 1; log(n); }");
  RunConfig Cfg;
  Cfg.RecordTrace = true;
  Simulation I(A, Cfg);
  for (int Run = 1; Run <= 3; ++Run) {
    RunResult Res = I.runOnce();
    ASSERT_TRUE(Res.Completed);
    EXPECT_EQ(Res.TraceData.Outputs[0].Args[0], Run);
  }
  I.resetNvm();
  RunResult Res = I.runOnce();
  EXPECT_EQ(Res.TraceData.Outputs[0].Args[0], 1);
}

TEST(Interp, DivisionByZeroTraps) {
  CompiledArtifact A = compile("fn main() { let z = 0; log(5 / z); }");
  RunConfig Cfg;
  Simulation I(A, Cfg);
  RunResult Res = I.runOnce();
  EXPECT_FALSE(Res.Completed);
  EXPECT_NE(Res.Trap.find("division by zero"), std::string::npos);
}

TEST(Interp, ArrayBoundsTrap) {
  CompiledArtifact A =
      compile("static a: [int; 2];\nfn main() { let i = 5; a[i] = 1; }");
  RunConfig Cfg;
  Simulation I(A, Cfg);
  RunResult Res = I.runOnce();
  EXPECT_FALSE(Res.Completed);
  EXPECT_NE(Res.Trap.find("out of bounds"), std::string::npos);
}

TEST(Interp, InputsSampleScenarioAtLogicalTime) {
  CompiledArtifact A = compile("io s;\nfn main() { log(s()); }");
  RunConfig Cfg;
  Cfg.Sensors = SensorScenario::Builder()
                    .channel(0, rampChannel(100, 1, 10)) // +1 every 10 tau
                    .build();
  Cfg.RecordTrace = true;
  Simulation I(A, Cfg);
  RunResult First = I.runOnce();
  RunResult Second = I.runOnce();
  ASSERT_TRUE(First.Completed && Second.Completed);
  // Logical time advanced between runs, so the ramp moved.
  EXPECT_GT(Second.TraceData.Outputs[0].Args[0],
            First.TraceData.Outputs[0].Args[0]);
}

// -- Intermittence ---------------------------------------------------------------

TEST(Interp, JitResumeDoesNotReExecute) {
  // JIT failures must not re-run code: statics advance exactly once per
  // run regardless of how many reboots interrupt it.
  CompiledArtifact A = compile("static n = 0;\nfn main() { n += 1; log(n); }",
                            ExecModel::JitOnly);
  RunConfig Cfg;
  Cfg.RecordTrace = true;
  Cfg.Plan = FailurePlan::periodic(400, 0.0);
  Cfg.Plan.setOffTime(100, 100);
  Simulation I(A, Cfg);
  uint64_t Reboots = 0;
  for (int Run = 1; Run <= 10; ++Run) {
    RunResult Res = I.runOnce();
    ASSERT_TRUE(Res.Completed) << Res.Trap;
    Reboots += Res.Reboots;
    ASSERT_EQ(Res.TraceData.Outputs.size(), 1u);
    EXPECT_EQ(Res.TraceData.Outputs[0].Args[0], Run);
  }
  EXPECT_GT(Reboots, 0u);
}

TEST(Interp, TauAdvancesAcrossReboots) {
  CompiledArtifact A = compile("fn main() { log(1); }", ExecModel::JitOnly);
  RunConfig Cfg;
  Cfg.Plan = FailurePlan::periodic(400, 0.0);
  Cfg.Plan.setOffTime(5000, 5000);
  Simulation I(A, Cfg);
  uint64_t Reboots = 0, Off = 0;
  for (int Run = 0; Run < 20; ++Run) {
    RunResult Res = I.runOnce();
    ASSERT_TRUE(Res.Completed);
    Reboots += Res.Reboots;
    Off += Res.OffCycles;
  }
  ASSERT_GE(Reboots, 1u);
  EXPECT_GE(Off, 5000u * Reboots); // Each reboot waits the full off time.
  EXPECT_GE(I.tau(), Off);         // tau includes off time.
  EXPECT_EQ(I.epoch(), Reboots);
}

TEST(Interp, AtomicRollbackIsIdempotent) {
  // WAR inside the region: n = n + 1 twice, plus a conditional write.
  // Under arbitrary failures the committed effect must equal one
  // continuous execution.
  const char *Src = "static n = 0;\nstatic flag = 0;\n"
                    "fn main() { atomic { n += 1; n += 1; "
                    "if n > 1 { flag = n; } } log(n, flag); }";
  auto Continuous = outputsOf(Src);

  CompiledArtifact A = compile(Src);
  RunConfig Cfg;
  Cfg.RecordTrace = true;
  Cfg.Plan = FailurePlan::random(0.03);
  Cfg.Plan.setOffTime(50, 50);
  Cfg.Seed = 17;
  Simulation I(A, Cfg);
  RunResult Res = I.runOnce();
  ASSERT_TRUE(Res.Completed) << Res.Trap;
  EXPECT_GT(Res.AtomicAborts, 0u) << "failures must hit inside the region";
  ASSERT_EQ(Res.TraceData.Outputs.size(), 1u);
  EXPECT_EQ(Res.TraceData.Outputs[0].Args, Continuous[0].Args);
  EXPECT_GT(Res.UndoLogEntries, 0u);
}

TEST(Interp, RolledBackOutputsDiscarded) {
  CompiledArtifact A = compile("static n = 0;\n"
                            "fn main() { atomic { n += 1; log(n); } }");
  RunConfig Cfg;
  Cfg.RecordTrace = true;
  Cfg.Plan = FailurePlan::random(0.01);
  Cfg.Plan.setOffTime(50, 50);
  Cfg.Seed = 23;
  Simulation I(A, Cfg);
  RunResult Res = I.runOnce();
  ASSERT_TRUE(Res.Completed) << Res.Trap;
  // However many attempts aborted, exactly one log(1) commits.
  ASSERT_EQ(Res.TraceData.Outputs.size(), 1u);
  EXPECT_EQ(Res.TraceData.Outputs[0].Args[0], 1);
}

TEST(Interp, NestedRegionsFlattenToOutermost) {
  CompiledArtifact A = compile("static n = 0;\n"
                            "fn main() { atomic { n += 1; atomic { n += 1; "
                            "} n += 1; } log(n); }");
  RunConfig Cfg;
  Cfg.RecordTrace = true;
  Cfg.Plan = FailurePlan::random(0.02);
  Cfg.Plan.setOffTime(50, 50);
  Cfg.Seed = 5;
  Simulation I(A, Cfg);
  RunResult Res = I.runOnce();
  ASSERT_TRUE(Res.Completed) << Res.Trap;
  // Inner commit must not make inner effects durable: a failure after the
  // inner 'end' still rolls back to the outer start, so the final count is
  // exactly 3 (never 4 or 5).
  EXPECT_EQ(Res.TraceData.Outputs[0].Args[0], 3);
}

TEST(Interp, StaticOmegaMatchesDynamicLogging) {
  const char *Src = "static a = 1;\nstatic b = 2;\n"
                    "fn main() { atomic { let t = a; a = b; b = t; } "
                    "log(a, b); }";
  for (bool StaticOmega : {false, true}) {
    CompiledArtifact A = compile(Src);
      RunConfig Cfg;
    Cfg.RecordTrace = true;
    Cfg.StaticOmega = StaticOmega;
    Cfg.Plan = FailurePlan::random(0.02);
    Cfg.Plan.setOffTime(50, 50);
    Cfg.Seed = 29;
    Simulation I(A, Cfg);
    RunResult Res = I.runOnce();
    ASSERT_TRUE(Res.Completed) << Res.Trap;
    EXPECT_EQ(Res.TraceData.Outputs[0].Args, (std::vector<int64_t>{2, 1}))
        << "StaticOmega=" << StaticOmega;
  }
}

TEST(Interp, StarvationDetectedForOversizedRegion) {
  CompiledArtifact A = compile("static n = 0;\n"
                            "fn main() { atomic { for i in 0..50 { n += 1; } "
                            "} log(n); }");
  RunConfig Cfg;
  Cfg.Plan = FailurePlan::periodic(20, 0.0); // Region needs > 20 cycles.
  Cfg.Plan.setOffTime(50, 50);
  Cfg.MaxAbortsPerRegion = 30;
  Simulation I(A, Cfg);
  RunResult Res = I.runOnce();
  EXPECT_TRUE(Res.Starved);
  EXPECT_FALSE(Res.Completed);
}

TEST(Interp, EnergyDrivenChargingAccounting) {
  CompiledArtifact A = compile("io s;\nfn main() { let x = s(); log(x); }",
                            ExecModel::JitOnly);
  RunConfig Cfg;
  Cfg.Plan = FailurePlan::energyDriven();
  Cfg.Energy.CapacityCycles = 500;
  Cfg.Energy.ReserveCycles = 250;
  Simulation I(A, Cfg);
  uint64_t On = 0, Off = 0, Reboots = 0;
  for (int Run = 0; Run < 50; ++Run) {
    RunResult Res = I.runOnce();
    ASSERT_TRUE(Res.Completed) << Res.Trap;
    On += Res.OnCycles;
    Off += Res.OffCycles;
    Reboots += Res.Reboots;
  }
  EXPECT_GT(Reboots, 10u);
  EXPECT_GT(Off, On) << "charging must dominate on a weak harvester";
}

TEST(Interp, CheckpointCostsCounted) {
  CompiledArtifact A = compile("fn main() { log(1); }", ExecModel::JitOnly);
  RunConfig Cfg;
  Cfg.Plan = FailurePlan::periodic(300, 0.0);
  Cfg.Plan.setOffTime(10, 10);
  Simulation I(A, Cfg);
  RunConfig Cfg2;
  Simulation I2(A, Cfg2);
  uint64_t FailCycles = 0, CleanCycles = 0, Ckpts = 0;
  for (int Run = 0; Run < 10; ++Run) {
    RunResult Failing = I.runOnce();
    RunResult Clean = I2.runOnce();
    ASSERT_TRUE(Failing.Completed && Clean.Completed);
    FailCycles += Failing.OnCycles;
    CleanCycles += Clean.OnCycles;
    Ckpts += Failing.Checkpoints;
  }
  ASSERT_GT(Ckpts, 0u);
  EXPECT_GT(FailCycles, CleanCycles);
}

/// Runs one activation of \p A under the bit-vector monitor alone on every
/// engine, failing once before each call to \p Callee from main (none when
/// empty), and returns the tree engine's violations after checking the
/// other engines report the same ones.
std::vector<ViolationRecord> bitVectorViolations(const CompiledArtifact &A,
                                                 const std::string &Callee) {
  const Program &P = A.program();
  std::set<InstrRef> Points;
  const Function *Main = P.function(P.mainFunction());
  for (int B = 0; B < Main->numBlocks(); ++B)
    for (const Instruction &I : Main->block(B)->instructions())
      if (I.Op == Opcode::Call && P.function(I.Callee)->name() == Callee)
        Points.insert(InstrRef(P.mainFunction(), I.Label));
  EXPECT_EQ(Points.empty(), Callee.empty());
  std::vector<std::vector<ViolationRecord>> PerEngine;
  for (DispatchEngine E : {DispatchEngine::Tree, DispatchEngine::Threaded}) {
    RunConfig Cfg;
    Cfg.Plan = Points.empty() ? FailurePlan::none()
                              : FailurePlan::pathological(Points);
    Cfg.MonitorBitVector = true;
    Cfg.Dispatch = E;
    Simulation I(A, Cfg);
    RunResult Res = I.runOnce();
    EXPECT_TRUE(Res.Completed) << Res.Trap;
    PerEngine.push_back(Res.Violations);
  }
  for (size_t E = 1; E < PerEngine.size(); ++E) {
    EXPECT_EQ(PerEngine[E].size(), PerEngine[0].size()) << "engine " << E;
    for (size_t V = 0; V < PerEngine[E].size() && V < PerEngine[0].size();
         ++V)
      EXPECT_EQ(PerEngine[E][V].Detail, PerEngine[0][V].Detail);
  }
  return PerEngine[0];
}

TEST(Interp, BitVectorMembersMatchTheirCallChain) {
  // One wrapper reached from two call sites: two members of set 1 that
  // share a static input operation (and so a bit). Only the member whose
  // call chain matches the frame stack runs its check.
  CompiledArtifact A = compile("io tmp;\n"
                               "fn read() -> int { return tmp(); }\n"
                               "fn main() {\n"
                               "  let a = read();\n"
                               "  let b = read();\n"
                               "  Consistent(a, 1);\n"
                               "  Consistent(b, 1);\n"
                               "  log(a + b);\n"
                               "}\n",
                               ExecModel::JitOnly);
  ASSERT_EQ(A.monitorPlan().Sets.size(), 1u);
  ASSERT_EQ(A.monitorPlan().Sets[0].Members.size(), 2u);
  EXPECT_TRUE(bitVectorViolations(A, "").empty());
  // A failure before the second call clears the first member's bit.
  std::vector<ViolationRecord> V = bitVectorViolations(A, "read");
  ASSERT_EQ(V.size(), 1u);
  EXPECT_EQ(V[0].K, ViolationRecord::Kind::ConsistentBitVec);
}

TEST(Interp, BitVectorFreshUseChecksEveryInput) {
  // The use of z checks the bits of both inputs, readT's first (lower
  // function id). After a failure before the call to readT, that bit is
  // set again but hum's is not: the second check must report it.
  CompiledArtifact A = compile("io tmp, hum;\n"
                               "fn readT() -> int { return tmp(); }\n"
                               "fn main() {\n"
                               "  let y = hum();\n"
                               "  let x = readT();\n"
                               "  let z = x + y;\n"
                               "  Fresh(z);\n"
                               "  log(z);\n"
                               "}\n",
                               ExecModel::JitOnly);
  const Program &P = A.program();
  int ReadT = -1;
  for (int F = 0; F < P.numFunctions(); ++F)
    if (P.function(F)->name() == "readT")
      ReadT = F;
  ASSERT_LT(ReadT, P.mainFunction());
  EXPECT_TRUE(bitVectorViolations(A, "").empty());
  std::vector<ViolationRecord> V = bitVectorViolations(A, "readT");
  ASSERT_FALSE(V.empty());
  EXPECT_EQ(V[0].K, ViolationRecord::Kind::FreshBitVec);
  EXPECT_NE(V[0].Detail.find("operation @"), std::string::npos);
  for (const auto &[Use, Inputs] : A.monitorPlan().UseChecks) {
    ASSERT_EQ(Inputs.size(), 2u);
    EXPECT_EQ(Inputs.begin()->Func, ReadT);
    // The reported operation is hum's input in main, not readT's.
    InstrRef Hum = *std::next(Inputs.begin());
    EXPECT_EQ(V[0].Detail, "use of stale input: operation @" +
                               std::to_string(Hum.Label) +
                               "'s bit cleared by a power failure");
  }
}

TEST(Interp, RandomFailurePlanCompletes) {
  CompiledArtifact A = compile("static n = 0;\n"
                            "fn main() { atomic { n += 1; } log(n); }");
  RunConfig Cfg;
  Cfg.Plan = FailurePlan::random(0.02);
  Cfg.Plan.setOffTime(100, 1000);
  Cfg.Seed = 3;
  Cfg.RecordTrace = true;
  Simulation I(A, Cfg);
  for (int Run = 1; Run <= 10; ++Run) {
    RunResult Res = I.runOnce();
    ASSERT_TRUE(Res.Completed) << Res.Trap;
    ASSERT_EQ(Res.TraceData.Outputs.size(), 1u);
    EXPECT_EQ(Res.TraceData.Outputs[0].Args[0], Run);
  }
}

} // namespace
