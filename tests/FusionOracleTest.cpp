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
/// The suite also pins the classifier's pure-function edge cases,
/// `EpochSpan`'s encoding and its agreement with an event-level model of
/// the taint-augmented semantics, the tree/threaded bitwise agreement of
/// oracle records on the pinned programs, and the oracle-off contract:
/// disarming the oracle leaves every other RunResult field bitwise
/// unchanged (the bench goldens — table2a/table2b/fig8 — extend the same
/// contract to whole tables).
///
//===----------------------------------------------------------------------===//

#include "fusion/FusionOracle.h"
#include "ocelot/Toolchain.h"
#include "runtime/Simulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
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
  RunConfig Cfg;
  Cfg.Plan = Plan;
  Cfg.Oracle = true;
  Cfg.RecordTrace = true;
  Cfg.Seed = 7;
  Cfg.Dispatch = Engine;
  Simulation Sim(A, std::move(Cfg));
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

/// The span of inputs from epochs \p Lo and \p Hi.
EpochSpan span(uint32_t Lo, uint32_t Hi) {
  return EpochSpan::of(Lo).join(EpochSpan::of(Hi));
}

TEST(OracleClassifier, EmptyInputsAreFresh) {
  EXPECT_TRUE(EpochSpan().empty());
  EXPECT_EQ(classifyOracleInputs(EpochSpan(), 5), OracleVerdict::Fresh);
}

TEST(OracleClassifier, CurrentEpochInputsAreFresh) {
  EXPECT_EQ(classifyOracleInputs(EpochSpan::of(3), 3), OracleVerdict::Fresh);
}

TEST(OracleClassifier, OlderEpochIsStale) {
  EXPECT_EQ(classifyOracleInputs(EpochSpan::of(2), 3), OracleVerdict::Stale);
  EXPECT_EQ(classifyOracleInputs(EpochSpan::of(0), 3), OracleVerdict::Stale);
}

TEST(OracleClassifier, TwoEpochsAreCrossEpoch) {
  // Cross-epoch dominates stale: fusing epochs 2 and 3 is inconsistent
  // even though the epoch-3 read on its own would be fresh.
  EXPECT_EQ(classifyOracleInputs(span(2, 3), 3), OracleVerdict::CrossEpoch);
  EXPECT_EQ(classifyOracleInputs(span(0, 2), 3), OracleVerdict::CrossEpoch);
}

TEST(OracleClassifier, SpansJoinByMinAndMax) {
  EpochSpan S = EpochSpan().join(EpochSpan());
  EXPECT_TRUE(S.empty());
  S = S.join(EpochSpan::of(4)).join(EpochSpan());
  EXPECT_EQ(S, EpochSpan::of(4));
  S = S.join(span(2, 3));
  EXPECT_EQ(S, span(2, 4));
  EXPECT_EQ(S.min(), 2u);
  EXPECT_EQ(S.max(), 4u);
  EXPECT_EQ(span(4, 2), S.join(EpochSpan::of(3))) << "join is order-free";
}

// -- EpochSpan: encoding and the event-level reference model ---------------

TEST(EpochSpan, EmptyValueIsAllZeroBytes) {
  // A value-initialized register file or NVM array is then one memset.
  const RtValue V{};
  const unsigned char Zero[sizeof(RtValue)] = {};
  EXPECT_EQ(std::memcmp(&V, Zero, sizeof(RtValue)), 0);
  EXPECT_TRUE(V.Taint.empty());
  EXPECT_TRUE(V.Taint.allIn(0));
  EXPECT_TRUE(V.Taint.allIn(UINT32_MAX));
}

TEST(EpochSpan, Uint32MaxBoundary) {
  const EpochSpan Top = EpochSpan::of(UINT32_MAX);
  EXPECT_FALSE(Top.empty());
  EXPECT_EQ(Top.min(), UINT32_MAX);
  EXPECT_EQ(Top.max(), UINT32_MAX);
  EXPECT_TRUE(Top.allIn(UINT32_MAX));
  EXPECT_FALSE(Top.allIn(UINT32_MAX - 1));
  EXPECT_EQ(Top.join(EpochSpan()), Top);
  EXPECT_EQ(EpochSpan().join(Top), Top);
  const EpochSpan Whole = Top.join(EpochSpan::of(0));
  EXPECT_FALSE(Whole.empty());
  EXPECT_EQ(Whole.min(), 0u);
  EXPECT_EQ(Whole.max(), UINT32_MAX);
  EXPECT_FALSE(Whole.allIn(0));
  EXPECT_EQ(classifyOracleInputs(Top, UINT32_MAX), OracleVerdict::Fresh);
  EXPECT_EQ(classifyOracleInputs(Whole, UINT32_MAX),
            OracleVerdict::CrossEpoch);
  const EpochSpan Zero = EpochSpan::of(0);
  EXPECT_FALSE(Zero.empty());
  EXPECT_EQ(Zero.min(), 0u);
  EXPECT_EQ(Zero.max(), 0u);
}

using Events = std::vector<InputEvent>;

/// The taint-augmented semantics over whole input events: A, then B's
/// events not in A.
Events modelMerge(Events A, const Events &B) {
  for (const InputEvent &E : B)
    if (std::find(A.begin(), A.end(), E) == A.end())
      A.push_back(E);
  return A;
}

/// The oracle's verdict rule over whole events: two or more distinct
/// epochs are CrossEpoch; otherwise an epoch older than \p EmitEpoch is
/// Stale; otherwise (no events included) Fresh.
OracleVerdict eventRule(const Events &Es, uint64_t EmitEpoch) {
  for (const InputEvent &E : Es)
    if (E.Epoch != Es.front().Epoch)
      return OracleVerdict::CrossEpoch;
  for (const InputEvent &E : Es)
    if (E.Epoch < EmitEpoch)
      return OracleVerdict::Stale;
  return OracleVerdict::Fresh;
}

TEST(EpochSpan, JoinMatchesTheEventModel) {
  // A random script of inputs and merges, mirrored on the event-level
  // model: after every operation the span keeps exactly what the monitors
  // and the oracle read of the model's events.
  std::mt19937_64 Rng(42);
  for (int Round = 0; Round < 20; ++Round) {
    SCOPED_TRACE("round " + std::to_string(Round));
    std::vector<EpochSpan> Spans{EpochSpan()};
    std::vector<Events> Model{{}};
    uint64_t Tau = 0, Epoch = 0;
    for (int Op = 0; Op < 400; ++Op) {
      if (Rng() % 4 == 0 || Spans.size() < 3) {
        // Tau and the epoch never run backward; equal-tau inputs
        // (zero-cost steps) can repeat an event exactly, which the model
        // dedups by value.
        Tau += Rng() % 3;
        if (Rng() % 16 == 0)
          ++Epoch;
        InputEvent E;
        E.Sensor = static_cast<int>(Rng() % 3);
        E.Tau = Tau;
        E.Epoch = Epoch;
        E.Value = static_cast<int64_t>(Rng() % 2);
        Spans.push_back(EpochSpan::of(static_cast<uint32_t>(Epoch)));
        Model.push_back({E});
      } else {
        size_t A = Rng() % Spans.size(), B = Rng() % Spans.size();
        Spans.push_back(Spans[A].join(Spans[B]));
        Model.push_back(modelMerge(Model[A], Model[B]));
      }
      SCOPED_TRACE("op " + std::to_string(Op));
      const EpochSpan S = Spans.back();
      const Events &Es = Model.back();
      ASSERT_EQ(S.empty(), Es.empty());
      if (!Es.empty()) {
        auto [Lo, Hi] = std::minmax_element(
            Es.begin(), Es.end(), [](const InputEvent &X, const InputEvent &Y) {
              return X.Epoch < Y.Epoch;
            });
        ASSERT_EQ(S.min(), Lo->Epoch);
        ASSERT_EQ(S.max(), Hi->Epoch);
        // "Two or more distinct epochs" is exactly min() != max().
        const bool Distinct =
            std::any_of(Es.begin(), Es.end(), [&](const InputEvent &X) {
              return X.Epoch != Es.front().Epoch;
            });
        ASSERT_EQ(Distinct, S.min() != S.max());
      }
      for (uint64_t Ep = 0; Ep <= Epoch + 1; ++Ep) {
        const bool AllIn =
            std::all_of(Es.begin(), Es.end(),
                        [&](const InputEvent &X) { return X.Epoch == Ep; });
        ASSERT_EQ(S.allIn(Ep), AllIn) << "epoch " << Ep;
        ASSERT_EQ(classifyOracleInputs(S, Ep), eventRule(Es, Ep))
            << "emission epoch " << Ep;
      }
    }
  }
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
  EXPECT_EQ(Rec.Inputs.min(), Rec.Epoch);
  EXPECT_EQ(Rec.Inputs.max(), Rec.Epoch);
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
  EXPECT_EQ(Rec.Inputs.min(), Rec.Epoch - 1);
  EXPECT_EQ(Rec.Inputs.max(), Rec.Epoch - 1);
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
  EXPECT_EQ(Rec.Inputs.min() + 1, Rec.Inputs.max());
  EXPECT_EQ(Rec.Inputs.max(), Rec.Epoch);
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
  EXPECT_EQ(Rec.Inputs.min(), Rec.Epoch);
  EXPECT_EQ(Rec.Inputs.max(), Rec.Epoch);
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
    RunConfig Cfg;
    Cfg.Plan = planAt(nthInput(A, 1));
    Cfg.Oracle = Armed;
    Cfg.RecordTrace = true;
    Cfg.Seed = 7;
    Simulation Sim(A, std::move(Cfg));
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
