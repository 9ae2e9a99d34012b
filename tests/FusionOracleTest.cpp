//===- FusionOracleTest.cpp - Input-epoch consistency oracle ---------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the input-epoch consistency oracle (src/fusion/FusionOracle.h) to
/// exact verdicts on hand-built programs. Each program pairs a fused
/// multi-channel read shape with a pathological failure plan that reboots
/// the device at one chosen instruction, so the epoch structure of every
/// committed output is known in advance:
///
///  * no failures                      -> every output Fresh;
///  * reboot between read and output   -> Stale under JIT checkpointing
///    (the read survives the checkpoint, the output commits one epoch
///    later);
///  * reboot between two fused reads   -> CrossEpoch under JIT
///    checkpointing (epoch-0 and epoch-1 inputs fuse into one output);
///  * the same cross-epoch program under Ocelot -> Fresh (the inferred
///    atomic region aborts and re-executes both reads after the reboot).
///
/// The suite also pins the classifier's pure-function edge cases, the
/// tree/threaded bitwise agreement of oracle records on the pinned
/// programs, and the oracle-off contract: disarming the oracle leaves
/// every other RunResult field bitwise unchanged (the bench goldens —
/// table2a/table2b/fig8 — extend the same contract to whole tables).
///
//===----------------------------------------------------------------------===//

#include "fusion/FusionOracle.h"
#include "ocelot/Toolchain.h"
#include "runtime/Simulation.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace ocelot;

namespace {

CompiledArtifact compile(const std::string &Src, ExecModel Model) {
  CompileOptions Opts;
  Opts.Model = Model;
  Compilation C = Toolchain().compile(Src, Opts);
  EXPECT_TRUE(C.ok()) << "compile failed under " << execModelName(Model);
  return C.artifact();
}

/// InstrRef of the \p N-th Input instruction in program order (the order
/// the straight-line test programs execute them in).
InstrRef nthInput(const CompiledArtifact &A, int N) {
  const Program &P = A.program();
  for (int F = 0; F < P.numFunctions(); ++F) {
    const Function *Fn = P.function(F);
    for (int B = 0; B < Fn->numBlocks(); ++B)
      for (const Instruction &I : Fn->block(B)->instructions())
        if (I.Op == Opcode::Input && N-- == 0)
          return {F, I.Label};
  }
  ADD_FAILURE() << "program has no " << N << "-th Input instruction";
  return {};
}

/// InstrRef of the first Output instruction in program order.
InstrRef firstOutput(const CompiledArtifact &A) {
  const Program &P = A.program();
  for (int F = 0; F < P.numFunctions(); ++F) {
    const Function *Fn = P.function(F);
    for (int B = 0; B < Fn->numBlocks(); ++B)
      for (const Instruction &I : Fn->block(B)->instructions())
        if (I.Op == Opcode::Output)
          return {F, I.Label};
  }
  ADD_FAILURE() << "program has no Output instruction";
  return {};
}

/// One activation on a fresh device under \p Engine with the oracle armed.
RunResult runOracle(const CompiledArtifact &A, const FailurePlan &Plan,
                    DispatchEngine Engine = DispatchEngine::Tree) {
  SimulationSpec Spec;
  Spec.Config.Plan = Plan;
  Spec.Config.Oracle = true;
  Spec.Config.RecordTrace = true;
  Spec.Config.Seed = 7;
  Spec.Config.Dispatch = Engine;
  Simulation Sim(A, std::move(Spec));
  RunResult R = Sim.runOnce();
  EXPECT_TRUE(R.Completed) << R.Trap;
  return R;
}

FailurePlan planAt(InstrRef Point) {
  FailurePlan P = FailurePlan::pathological({Point});
  P.setOffTime(1000, 1000);
  return P;
}

// -- Classifier edge cases (pure function, no interpreter) -----------------

TEST(OracleClassifier, EmptyInputsAreFresh) {
  std::vector<InputEvent> In;
  EXPECT_EQ(classifyOracleInputs(In, 5), OracleVerdict::Fresh);
}

TEST(OracleClassifier, CurrentEpochInputsAreFresh) {
  std::vector<InputEvent> In = {{0, 10, 3, 42}, {1, 11, 3, 43}};
  EXPECT_EQ(classifyOracleInputs(In, 3), OracleVerdict::Fresh);
}

TEST(OracleClassifier, OlderEpochIsStale) {
  std::vector<InputEvent> In = {{0, 10, 2, 42}};
  EXPECT_EQ(classifyOracleInputs(In, 3), OracleVerdict::Stale);
}

TEST(OracleClassifier, TwoEpochsAreCrossEpoch) {
  // Cross-epoch dominates stale: fusing epochs 2 and 3 is inconsistent
  // even though the epoch-3 read on its own would be fresh.
  std::vector<InputEvent> In = {{0, 10, 2, 42}, {1, 12, 3, 50}};
  EXPECT_EQ(classifyOracleInputs(In, 3), OracleVerdict::CrossEpoch);
}

TEST(OracleClassifier, DuplicateEventsDedupBeforeClassifying) {
  // The same read reaching an output through two dataflow paths is one
  // event, not a two-epoch fusion.
  std::vector<InputEvent> In = {{0, 10, 2, 42}, {0, 10, 2, 42}};
  EXPECT_EQ(classifyOracleInputs(In, 3), OracleVerdict::Stale);
  EXPECT_EQ(In.size(), 1u);
}

// -- Pinned end-to-end verdicts --------------------------------------------

const char *FusedSrc = "io a, b;\n"
                       "fn main() {\n"
                       "  let x = a();\n"
                       "  let y = b();\n"
                       "  log(x + y);\n"
                       "}\n";

const char *FusedConsistentSrc = "io a, b;\n"
                                 "fn main() {\n"
                                 "  let consistent(1) x = a();\n"
                                 "  let consistent(1) y = b();\n"
                                 "  log(x + y);\n"
                                 "}\n";

TEST(FusionOracle, NoFailuresAllFresh) {
  CompiledArtifact A = compile(FusedSrc, ExecModel::JitOnly);
  RunResult R = runOracle(A, FailurePlan::none());
  EXPECT_EQ(R.Reboots, 0u);
  ASSERT_EQ(R.OracleRecords.size(), 1u);
  const OracleRecord &Rec = R.OracleRecords[0];
  EXPECT_EQ(Rec.Verdict, OracleVerdict::Fresh);
  EXPECT_EQ(Rec.Inputs.size(), 2u);
  for (const InputEvent &E : Rec.Inputs)
    EXPECT_EQ(E.Epoch, Rec.Epoch);
  EXPECT_EQ(R.OracleFresh, 1u);
  EXPECT_EQ(R.OracleStale, 0u);
  EXPECT_EQ(R.OracleCrossEpoch, 0u);
}

TEST(FusionOracle, UntaintedOutputIsFreshWithNoInputs) {
  CompiledArtifact A = compile("fn main() { log(5); }\n", ExecModel::JitOnly);
  RunResult R = runOracle(A, FailurePlan::none());
  ASSERT_EQ(R.OracleRecords.size(), 1u);
  EXPECT_EQ(R.OracleRecords[0].Verdict, OracleVerdict::Fresh);
  EXPECT_TRUE(R.OracleRecords[0].Inputs.empty());
}

TEST(FusionOracle, RebootBeforeOutputIsStaleUnderJit) {
  // The read commits in epoch 0; the reboot fires immediately before the
  // output, which therefore commits in epoch 1 carrying an epoch-0 input.
  CompiledArtifact A =
      compile("io a;\nfn main() { let x = a(); log(x); }\n",
              ExecModel::JitOnly);
  RunResult R = runOracle(A, planAt(firstOutput(A)));
  EXPECT_EQ(R.Reboots, 1u);
  ASSERT_EQ(R.OracleRecords.size(), 1u);
  const OracleRecord &Rec = R.OracleRecords[0];
  EXPECT_EQ(Rec.Verdict, OracleVerdict::Stale);
  ASSERT_EQ(Rec.Inputs.size(), 1u);
  EXPECT_EQ(Rec.Inputs[0].Epoch, Rec.Epoch - 1);
  EXPECT_EQ(R.OracleStale, 1u);
  EXPECT_EQ(R.OracleCrossEpoch, 0u);
}

TEST(FusionOracle, RebootBetweenFusedReadsIsCrossEpochUnderJit) {
  // JIT checkpointing preserves the epoch-0 read of `a` across the reboot
  // fired before the read of `b`; the output fuses epochs 0 and 1.
  CompiledArtifact A = compile(FusedSrc, ExecModel::JitOnly);
  RunResult R = runOracle(A, planAt(nthInput(A, 1)));
  EXPECT_EQ(R.Reboots, 1u);
  ASSERT_EQ(R.OracleRecords.size(), 1u);
  const OracleRecord &Rec = R.OracleRecords[0];
  EXPECT_EQ(Rec.Verdict, OracleVerdict::CrossEpoch);
  ASSERT_EQ(Rec.Inputs.size(), 2u);
  EXPECT_EQ(Rec.Inputs[0].Epoch + 1, Rec.Inputs[1].Epoch);
  EXPECT_EQ(R.OracleCrossEpoch, 1u);
}

TEST(FusionOracle, OcelotRegionPreventsTheCrossEpoch) {
  // Same reboot point, but under Ocelot the consistent(1) set places both
  // reads in one atomic region: the failure aborts the region, both reads
  // re-execute in epoch 1, and the committed output is Fresh — the
  // enforcement the oracle exists to confirm.
  CompiledArtifact A = compile(FusedConsistentSrc, ExecModel::Ocelot);
  RunResult R = runOracle(A, planAt(nthInput(A, 1)));
  EXPECT_EQ(R.Reboots, 1u);
  ASSERT_EQ(R.OracleRecords.size(), 1u);
  const OracleRecord &Rec = R.OracleRecords[0];
  EXPECT_EQ(Rec.Verdict, OracleVerdict::Fresh);
  EXPECT_EQ(Rec.Inputs.size(), 2u);
  for (const InputEvent &E : Rec.Inputs)
    EXPECT_EQ(E.Epoch, Rec.Epoch);
  EXPECT_EQ(R.OracleFresh, 1u);
  EXPECT_EQ(R.OracleCrossEpoch, 0u);
}

// -- Engine invariance on the pinned programs ------------------------------

TEST(FusionOracle, VerdictsBitwiseIdenticalAcrossEngines) {
  struct Pinned {
    const char *Src;
    ExecModel Model;
    bool FailAtSecondRead;
  };
  const Pinned Cases[] = {
      {FusedSrc, ExecModel::JitOnly, true},
      {FusedConsistentSrc, ExecModel::Ocelot, true},
      {FusedSrc, ExecModel::AtomicsOnly, false},
  };
  for (const Pinned &C : Cases) {
    CompiledArtifact A = compile(C.Src, C.Model);
    FailurePlan Plan =
        C.FailAtSecondRead ? planAt(nthInput(A, 1)) : FailurePlan::none();
    RunResult Tree = runOracle(A, Plan, DispatchEngine::Tree);
    RunResult Threaded = runOracle(A, Plan, DispatchEngine::Threaded);
    std::string What = execModelName(C.Model);
    ASSERT_EQ(Threaded.OracleRecords.size(), Tree.OracleRecords.size())
        << What;
    for (size_t O = 0; O < Tree.OracleRecords.size(); ++O)
      EXPECT_TRUE(Threaded.OracleRecords[O] == Tree.OracleRecords[O])
          << What << " record " << O << " [threaded vs tree]";
  }
}

// -- Oracle-off contract ---------------------------------------------------

TEST(FusionOracle, DisarmedOracleChangesNothingElse) {
  // Arming the oracle must be observationally free: every non-oracle
  // RunResult field stays bitwise identical, and disarmed runs carry no
  // records. The bench goldens (table2a/table2b/fig8) pin the same
  // contract at table granularity.
  CompiledArtifact A = compile(FusedSrc, ExecModel::JitOnly);
  for (bool Armed : {false, true}) {
    SimulationSpec Spec;
    Spec.Config.Plan = planAt(nthInput(A, 1));
    Spec.Config.Oracle = Armed;
    Spec.Config.RecordTrace = true;
    Spec.Config.Seed = 7;
    Simulation Sim(A, std::move(Spec));
    RunResult R = Sim.runOnce();
    ASSERT_TRUE(R.Completed) << R.Trap;
    static RunResult Base;
    if (!Armed) {
      Base = R;
      EXPECT_TRUE(R.OracleRecords.empty());
      EXPECT_EQ(R.OracleFresh + R.OracleStale + R.OracleCrossEpoch, 0u);
      continue;
    }
    EXPECT_EQ(R.Steps, Base.Steps);
    EXPECT_EQ(R.Reboots, Base.Reboots);
    EXPECT_EQ(R.OnCycles, Base.OnCycles);
    EXPECT_EQ(R.OffCycles, Base.OffCycles);
    EXPECT_EQ(R.FinalTau, Base.FinalTau);
    ASSERT_EQ(R.TraceData.Outputs.size(), Base.TraceData.Outputs.size());
    for (size_t O = 0; O < R.TraceData.Outputs.size(); ++O)
      EXPECT_TRUE(
          R.TraceData.Outputs[O].sameContent(Base.TraceData.Outputs[O]));
    EXPECT_FALSE(R.OracleRecords.empty());
  }
}

} // namespace
