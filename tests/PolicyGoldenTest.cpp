//===- PolicyGoldenTest.cpp - Taint, policy and monitor-plan golden ----------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins the compile-time analysis byte for byte. For every paper and fusion
// benchmark, both sources, the test renders each function's FunctionTaint
// (every field), contexts() and globalContent(), then, for every ExecModel,
// the `ocelotc --emit-policies` text and the MonitorPlan. The rendering is
// compared against tests/goldens/policy_taint.golden.
//
// To re-bless after an intended change of analysis output:
//   OCELOT_BLESS_GOLDEN=1 ./PolicyGoldenTest
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/TaintAnalysis.h"
#include "apps/Benchmarks.h"
#include "frontend/Lowering.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "fusion/FusionBenchmarks.h"
#include "ocelot/Toolchain.h"

#include "RenderMonitorPlan.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace ocelot;

namespace {

const char *const GoldenPath = OCELOT_GOLDEN_DIR "/policy_taint.golden";

std::string tokens(const Program &P, const TaintAnalysis &TA,
                   const TokenSet &T) {
  std::string S = "{";
  const char *Sep = "";
  // Appends piecewise: GCC 12's inlined `"P" + std::to_string(I)` trips a
  // false -Wrestrict at -O3.
  auto Item = [&](const char *Tag, const std::string &X) {
    S += Sep;
    S += Tag;
    S += X;
    Sep = " ";
  };
  for (uint32_t I : TA.members(T.Params))
    Item("P", std::to_string(I));
  for (uint32_t I : TA.members(T.RefContents))
    Item("R", std::to_string(I));
  for (uint32_t G : TA.members(T.Globals))
    Item("G:", P.global(static_cast<int>(G)).Name);
  for (const ProvChain &C : TA.resolveRelative(T))
    Item("[", chainToString(P, C) + "]");
  return S + "}";
}

void renderTaint(const Program &P, const TaintAnalysis &TA,
                 std::ostream &Out) {
  for (int F = 0; F < P.numFunctions(); ++F) {
    const FunctionTaint &FT = TA.functionTaint(F);
    Out << "fn " << P.function(F)->name() << "\n";
    Out << "  ret " << tokens(P, TA, FT.Ret) << "\n";
    for (const auto &[Param, T] : FT.RefOut)
      Out << "  refout p" << Param << " " << tokens(P, TA, T) << "\n";
    for (const auto &[G, T] : FT.GlobalWrites)
      Out << "  gwrite " << P.global(G).Name << " " << tokens(P, TA, T) << "\n";
    for (const auto &[Label, T] : FT.AnnotTaint)
      Out << "  annot @" << Label << " " << tokens(P, TA, T) << "\n";
    for (const auto &[Label, Args] : FT.CallArgTaint)
      for (size_t A = 0; A < Args.size(); ++A)
        Out << "  callarg @" << Label << " #" << A << " "
            << tokens(P, TA, Args[A]) << "\n";
    for (size_t R = 0; R < FT.RegTaint.size(); ++R)
      if (!FT.RegTaint[R].empty())
        Out << "  reg r" << R << " " << tokens(P, TA, FT.RegTaint[R]) << "\n";
    for (const ProvChain &C : TA.contexts(F))
      Out << "  context [" << chainToString(P, C) << "]\n";
  }
  for (int G = 0; G < P.numGlobals(); ++G) {
    if (TA.globalContent(G).empty())
      continue;
    Out << "global " << P.global(G).Name << "\n";
    for (const ProvChain &C : TA.globalContent(G))
      Out << "  [" << chainToString(P, C) << "]\n";
  }
}

void renderSource(const std::string &Title, const std::string &Src,
                  std::ostream &Out) {
  Out << "=== " << Title << "\n--- taint\n";
  DiagnosticEngine Diags;
  auto M = Parser::parseSource(Src, Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.str();
  ASSERT_TRUE(checkModule(*M, Diags)) << Diags.str();
  auto P = lowerModule(*M, Diags);
  ASSERT_TRUE(P != nullptr) << Diags.str();
  CallGraph CG(*P);
  TaintAnalysis TA(*P, CG);
  renderTaint(*P, TA, Out);

  for (ExecModel Model : {ExecModel::JitOnly, ExecModel::AtomicsOnly,
                          ExecModel::Ocelot, ExecModel::CheckOnly}) {
    CompileOptions Opts;
    Opts.Model = Model;
    Compilation C = Toolchain().compile(Src, Opts);
    Out << "--- model " << execModelName(Model) << "\n" << C.status().str();
    if (!C.ok())
      continue;
    const CompiledArtifact &A = C.artifact();
    Out << "placement " << (A.placementValid() ? "valid" : "invalid")
        << "\n"
        << renderPolicies(A);
    test::renderMonitorPlan(A.program(), A.monitorPlan(), Out);
  }
}

std::string renderAll() {
  std::ostringstream Out;
  std::vector<const BenchmarkDef *> Benches;
  for (const BenchmarkDef &B : allBenchmarks())
    Benches.push_back(&B);
  for (const BenchmarkDef &B : fusionBenchmarks())
    Benches.push_back(&B);
  for (const BenchmarkDef *B : Benches) {
    renderSource(B->Name + " annotated", B->AnnotatedSrc, Out);
    renderSource(B->Name + " atomics", B->AtomicsSrc, Out);
  }
  return Out.str();
}

TEST(PolicyGolden, AnalysisMatchesGolden) {
  std::string Actual = renderAll();
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  const char *Bless = std::getenv("OCELOT_BLESS_GOLDEN");
  if (Bless && *Bless && std::string(Bless) != "0") {
    std::ofstream(GoldenPath, std::ios::binary) << Actual;
    GTEST_SKIP() << "wrote " << GoldenPath;
  }
  std::ifstream In(GoldenPath, std::ios::binary);
  ASSERT_TRUE(In) << "missing golden " << GoldenPath;
  std::stringstream Expected;
  Expected << In.rdbuf();
  if (Expected.str() == Actual)
    return;
  // Point at the first differing line instead of dumping the whole file.
  std::istringstream E(Expected.str()), A(Actual);
  std::string EL, AL;
  for (int Line = 1;; ++Line) {
    bool HasE = static_cast<bool>(std::getline(E, EL));
    bool HasA = static_cast<bool>(std::getline(A, AL));
    if (!HasE && !HasA)
      break;
    if (!HasE || !HasA || EL != AL) {
      FAIL() << "analysis output differs from " << GoldenPath << " at line "
             << Line << "\n  golden: " << (HasE ? EL : "<eof>")
             << "\n  actual: " << (HasA ? AL : "<eof>");
    }
  }
  FAIL() << "analysis output differs from " << GoldenPath;
}

} // namespace
