//===- AnalysisTest.cpp - Dominators, call graph, taint, WAR/EMW -----------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/Dominators.h"
#include "analysis/TaintAnalysis.h"
#include "analysis/WarAnalysis.h"
#include "frontend/Lowering.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

using namespace ocelot;

namespace {

std::unique_ptr<Program> lower(const std::string &Src) {
  DiagnosticEngine Diags;
  auto M = Parser::parseSource(Src, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  EXPECT_TRUE(checkModule(*M, Diags)) << Diags.str();
  auto P = lowerModule(*M, Diags);
  EXPECT_TRUE(P != nullptr) << Diags.str();
  return P;
}

/// Builds a diamond CFG: 0 -> {1, 2} -> 3 -> ret.
std::unique_ptr<Program> diamond() {
  auto P = std::make_unique<Program>();
  Function *F = P->addFunction("main");
  P->setMainFunction(F->id());
  IRBuilder B(*P);
  B.setFunction(F);
  BasicBlock *Entry = F->addBlock("entry");
  BasicBlock *L = F->addBlock("l");
  BasicBlock *R = F->addBlock("r");
  BasicBlock *J = F->addBlock("j");
  B.setBlock(Entry);
  int C = B.emitConst(1);
  B.emitCondBr(Operand::reg(C), L->id(), R->id());
  B.setBlock(L);
  B.emitNop();
  B.emitBr(J->id());
  B.setBlock(R);
  B.emitNop();
  B.emitBr(J->id());
  B.setBlock(J);
  B.emitRet(Operand::none());
  return P;
}

TEST(Dominators, Diamond) {
  auto P = diamond();
  const Function &F = *P->function(0);
  DominatorTree DT = DominatorTree::computeDominators(F);
  EXPECT_EQ(DT.idom(1), 0);
  EXPECT_EQ(DT.idom(2), 0);
  EXPECT_EQ(DT.idom(3), 0);
  EXPECT_TRUE(DT.dominates(0, 3));
  EXPECT_FALSE(DT.dominates(1, 3));
  EXPECT_EQ(DT.closestCommon(1, 2), 0);
  EXPECT_EQ(DT.closestCommon({1, 2, 3}), 0);
  EXPECT_EQ(DT.closestCommon(1, 1), 1);
}

TEST(Dominators, PostDominatorsDiamond) {
  auto P = diamond();
  const Function &F = *P->function(0);
  DominatorTree PDT = DominatorTree::computePostDominators(F);
  EXPECT_EQ(PDT.idom(1), 3);
  EXPECT_EQ(PDT.idom(2), 3);
  EXPECT_EQ(PDT.idom(0), 3);
  EXPECT_TRUE(PDT.dominates(3, 0));
  EXPECT_EQ(PDT.closestCommon(1, 2), 3);
}

TEST(Dominators, InstructionLevelOrdering) {
  auto P = diamond();
  const Function &F = *P->function(0);
  DominatorTree DT = DominatorTree::computeDominators(F);
  DominatorTree PDT = DominatorTree::computePostDominators(F);
  InstrPos A{0, 0}, B{0, 1};
  EXPECT_TRUE(DT.dominates(A, B));
  EXPECT_FALSE(DT.dominates(B, A));
  EXPECT_TRUE(PDT.dominates(B, A));  // Post-dominance reverses in-block.
  EXPECT_FALSE(PDT.dominates(A, B));
}

TEST(Dominators, UnreachableBlocks) {
  auto P = diamond();
  Function *F = P->function(0);
  BasicBlock *Dead = F->addBlock("dead");
  IRBuilder B(*P);
  B.setFunction(F);
  B.setBlock(Dead);
  B.emitBr(3);
  DominatorTree DT = DominatorTree::computeDominators(*F);
  EXPECT_FALSE(DT.isReachable(Dead->id()));
  EXPECT_TRUE(DT.isReachable(3));
}

TEST(Dominators, ReversePostOrderAppendsUnreachable) {
  auto P = diamond();
  Function *F = P->function(0);
  BasicBlock *Dead = F->addBlock("dead");
  IRBuilder B(*P);
  B.setFunction(F);
  B.setBlock(Dead);
  B.emitBr(3);
  // Entry first, the join after both arms, the dead block last.
  EXPECT_EQ(reversePostOrder(*F), (std::vector<int>{0, 2, 1, 3, 4}));
}

TEST(CallGraph, BottomUpOrderAndReach) {
  auto P = lower("io s;\n"
                 "fn leaf() -> int { return s(); }\n"
                 "fn mid() -> int { return leaf() + 1; }\n"
                 "fn main() { let v = mid(); log(v); }");
  CallGraph CG(*P);
  EXPECT_FALSE(CG.hasCycle());
  int Main = P->functionByName("main")->id();
  int Mid = P->functionByName("mid")->id();
  int Leaf = P->functionByName("leaf")->id();
  // Callees before callers.
  const auto &Order = CG.bottomUpOrder();
  auto Pos = [&](int F) {
    return std::find(Order.begin(), Order.end(), F) - Order.begin();
  };
  EXPECT_LT(Pos(Leaf), Pos(Mid));
  EXPECT_LT(Pos(Mid), Pos(Main));
  EXPECT_TRUE(CG.reaches(Main, Leaf));
  EXPECT_FALSE(CG.reaches(Leaf, Main));
  ASSERT_EQ(CG.callersOf(Leaf).size(), 1u);
  EXPECT_EQ(CG.callersOf(Leaf)[0].Caller, Mid);
}

// -- Taint ---------------------------------------------------------------------

struct Analyzed {
  std::unique_ptr<Program> P;
  std::unique_ptr<CallGraph> CG;
  std::unique_ptr<TaintAnalysis> TA;
};

Analyzed analyze(const std::string &Src) {
  Analyzed A;
  A.P = lower(Src);
  A.CG = std::make_unique<CallGraph>(*A.P);
  A.TA = std::make_unique<TaintAnalysis>(*A.P, *A.CG);
  return A;
}

/// The taint of the single Fresh/Consistent marker in function \p Name.
TokenSet annotTaint(const Analyzed &A, const std::string &Name) {
  const Function *F = A.P->functionByName(Name);
  const FunctionTaint &FT = A.TA->functionTaint(F->id());
  EXPECT_EQ(FT.AnnotTaint.size(), 1u);
  return FT.AnnotTaint.begin()->second;
}

TEST(Taint, DirectInputDependence) {
  auto A = analyze("io s;\nfn main() { let x = s(); Fresh(x); }");
  TokenSet T = annotTaint(A, "main");
  EXPECT_TRUE(TaintAnalysis::isSelfContained(T));
  ASSERT_EQ(T.Locals.size(), 1u);
  // Chain is just the Input instruction in main.
  EXPECT_EQ(T.Locals.begin()->size(), 1u);
}

TEST(Taint, ReturnPropagatesWithProvenance) {
  // Fig. 6(a): x := tmp() where tmp senses and normalizes.
  auto A = analyze("io sense;\n"
                   "fn norm(t: int) -> int { return t * 2 + 1; }\n"
                   "fn tmp() -> int { let t = sense(); return norm(t); }\n"
                   "fn main() { let x = tmp(); Fresh(x); log(x); }");
  TokenSet T = annotTaint(A, "main");
  EXPECT_TRUE(TaintAnalysis::isSelfContained(T));
  ASSERT_EQ(T.Locals.size(), 1u);
  const ProvChain &C = *T.Locals.begin();
  // main calls tmp (call site in main), input inside tmp: chain length 2.
  ASSERT_EQ(C.size(), 2u);
  EXPECT_EQ(C[0].Func, A.P->functionByName("main")->id());
  EXPECT_EQ(C[1].Func, A.P->functionByName("tmp")->id());
  // The chain ends at the Input instruction.
  const Function *Tmp = A.P->functionByName("tmp");
  const Instruction *Last = Tmp->instrAt(Tmp->findLabel(C[1].Label));
  ASSERT_TRUE(Last);
  EXPECT_EQ(Last->Op, Opcode::Input);
}

TEST(Taint, TwoCallSitesDistinguished) {
  // Fig. 6(b): two calls to the same sensor wrapper must yield two chains.
  auto A = analyze("io sense;\n"
                   "fn pres() -> int { let p = sense(); return p; }\n"
                   "fn confirm() { let y = pres(); Consistent(y, 1); "
                   "let y2 = pres(); Consistent(y2, 1); }\n"
                   "fn main() { confirm(); }");
  const Function *Confirm = A.P->functionByName("confirm");
  const FunctionTaint &FT = A.TA->functionTaint(Confirm->id());
  ASSERT_EQ(FT.AnnotTaint.size(), 2u);
  std::set<ProvChain> AllChains;
  for (const auto &[Label, T] : FT.AnnotTaint) {
    EXPECT_EQ(T.Locals.size(), 1u);
    AllChains.insert(T.Locals.begin(), T.Locals.end());
  }
  // Two distinct provenance chains through two distinct call sites.
  EXPECT_EQ(AllChains.size(), 2u);
}

TEST(Taint, PassByReferenceFlowsToGlobal) {
  auto A = analyze("io s;\n"
                   "fn fill(r: &int) { *r = s(); }\n"
                   "fn main() { let y = 0; fill(&y); let z = y + 1; "
                   "Fresh(z); }");
  TokenSet T = annotTaint(A, "main");
  // y is promoted to a global; z's taint goes through the global content.
  EXPECT_FALSE(TaintAnalysis::isSelfContained(T));
  int G = A.P->findGlobal("main::y");
  ASSERT_GE(G, 0);
  EXPECT_TRUE(T.Globals.count(G));
  // The global's content taint resolves to the input inside fill.
  const auto &Content = A.TA->globalContent(G);
  ASSERT_EQ(Content.size(), 1u);
  EXPECT_EQ(Content.begin()->size(), 2u); // call site + input
}

TEST(Taint, ArgumentTaintFlowsContextSensitively) {
  auto A = analyze("io s;\n"
                   "fn use_it(v: int) { Fresh(v); }\n"
                   "fn main() { let a = s(); use_it(a); use_it(3); }");
  TokenSet T = annotTaint(A, "use_it");
  // Inside use_it the taint is symbolic (param 0).
  EXPECT_TRUE(T.Params.count(0));
  // Absolute resolution finds the single tainted call site's input.
  std::set<ProvChain> Abs =
      A.TA->resolveAbsolute(A.P->functionByName("use_it")->id(), T);
  ASSERT_EQ(Abs.size(), 1u);
  EXPECT_EQ(Abs.begin()->size(), 1u); // the Input instruction in main
}

TEST(Taint, ControlDependenceTaintsDefinitions) {
  auto A = analyze("io s;\n"
                   "fn main() { let c = s(); let mut flag = 0; "
                   "if c > 5 { flag = 1; } Fresh(flag); }");
  TokenSet T = annotTaint(A, "main");
  // flag is data-independent of the input but control-dependent on it.
  EXPECT_FALSE(T.empty());
  EXPECT_EQ(T.Locals.size(), 1u);
}

TEST(Taint, GlobalContentUnion) {
  auto A = analyze("io a, b;\n"
                   "static cell = 0;\n"
                   "fn main() { cell = a(); cell = b(); let v = cell; "
                   "Fresh(v); }");
  int G = A.P->findGlobal("cell");
  EXPECT_EQ(A.TA->globalContent(G).size(), 2u);
}

TEST(Taint, LoadThroughRefSeesLaterStores) {
  // Ref contents are flow-insensitive: the load of *r precedes the store
  // in the same block, yet a's taint still includes what is stored.
  auto A = analyze("io s;\n"
                   "fn swap(r: &int, x: int) -> int { let a = *r; *r = x; "
                   "return a; }\n"
                   "fn main() { let y = 0; let v = swap(&y, s()); log(v); }");
  const Function *Swap = A.P->functionByName("swap");
  const FunctionTaint &FT = A.TA->functionTaint(Swap->id());
  EXPECT_TRUE(FT.Ret.RefContents.count(0));
  EXPECT_TRUE(FT.Ret.Params.count(1));
}

TEST(Taint, ControlTaintReachesLastUnrolledIteration) {
  // 512 unrolled iterations, each branching on a fresh input: only the
  // last iteration's branch decides flag, so its input alone taints it.
  auto A = analyze("io s;\n"
                   "fn main() { let mut flag = 0; for i in 0..512 { "
                   "let c = s(); flag = 0; if c > i { flag = 1; } } "
                   "Fresh(flag); }");
  TokenSet T = annotTaint(A, "main");
  ASSERT_EQ(T.Locals.size(), 1u);
  const ProvChain &C = *T.Locals.begin();
  ASSERT_EQ(C.size(), 1u);
  const Function *Main = A.P->functionByName("main");
  uint32_t LastInput = 0;
  for (int B = 0; B < Main->numBlocks(); ++B)
    for (const Instruction &I : Main->block(B)->instructions())
      if (I.Op == Opcode::Input)
        LastInput = std::max(LastInput, I.Label);
  EXPECT_EQ(C[0].Label, LastInput);
}

TEST(Taint, GrownBranchConditionRevisitsDependents) {
  // OCL lowers to acyclic CFGs; hand-built IR may loop. Here the branch in
  // block 1 tests r2, which only reaches it over the back edge 4 -> 1.
  // Block 3 is control-dependent on that branch, but its predecessor 2
  // already saw r2 through block 5, so its in-state never grows: only the
  // branch's condition taint can send block 3 round again.
  //
  //   0: in = s(); br 1 | 5     5: r2 = in; br 2
  //   1: br r2 ? 2 : 4          2: br 3
  //   3: r3 = 7; br 4           4: br 1 | 6         6: ret
  auto P = std::make_unique<Program>();
  P->addSensor({"s", {}});
  Function *F = P->addFunction("main");
  P->setMainFunction(F->id());
  IRBuilder B(*P);
  B.setFunction(F);
  std::vector<BasicBlock *> Bl;
  for (int I = 0; I < 7; ++I) {
    std::string Name = "b"; // Appended: `"b" + ...` trips GCC 12 -Wrestrict.
    Name += std::to_string(I);
    Bl.push_back(F->addBlock(Name));
  }
  int R2 = F->newReg();
  B.setBlock(Bl[0]);
  int In = B.emitInput(0);
  B.emitCondBr(Operand::reg(B.emitConst(1)), 1, 5);
  B.setBlock(Bl[5]);
  B.emitMovTo(R2, Operand::reg(In));
  B.emitBr(2);
  B.setBlock(Bl[1]);
  B.emitCondBr(Operand::reg(R2), 2, 4);
  B.setBlock(Bl[2]);
  B.emitBr(3);
  B.setBlock(Bl[3]);
  int R3 = B.emitConst(7);
  B.emitBr(4);
  B.setBlock(Bl[4]);
  B.emitCondBr(Operand::reg(B.emitConst(0)), 1, 6);
  B.setBlock(Bl[6]);
  B.emitRet(Operand::none());

  CallGraph CG(*P);
  TaintAnalysis TA(*P, CG);
  const TokenSet &T = TA.functionTaint(F->id()).RegTaint[R3];
  ASSERT_EQ(T.Locals.size(), 1u);
  EXPECT_EQ(*T.Locals.begin(),
            (ProvChain{InstrRef(F->id(), F->block(0)->instructions()[0].Label)}));
}

TEST(Taint, UntaintedValuesStayClean) {
  auto A = analyze("io s;\nfn main() { let x = 1 + 2; let y = s(); "
                   "Fresh(x); log(y); }");
  TokenSet T = annotTaint(A, "main");
  EXPECT_TRUE(T.empty());
}

// -- WAR / EMW -------------------------------------------------------------------

TEST(War, RegionSetsComputed) {
  auto A = analyze("static a = 0;\nstatic b = 0;\nstatic c = 0;\n"
                   "fn main() { atomic { let t = a; a = t + 1; b = 2; "
                   "let u = c; log(u); } }");
  WarAnalysis WA(*A.P, *A.CG);
  ASSERT_EQ(WA.regions().size(), 1u);
  const RegionInfo &R = WA.regions()[0];
  int GA = A.P->findGlobal("a"), GB = A.P->findGlobal("b"),
      GC = A.P->findGlobal("c");
  EXPECT_TRUE(R.War.count(GA));  // read then written
  EXPECT_TRUE(R.Emw.count(GB));  // written only
  EXPECT_FALSE(R.Omega.count(GC)); // read only: no backup needed
  EXPECT_TRUE(R.Omega.count(GA));
  EXPECT_TRUE(R.Omega.count(GB));
}

TEST(War, CalleeEffectsIncluded) {
  auto A = analyze("static total = 0;\n"
                   "fn bump() { total += 1; }\n"
                   "fn main() { atomic { bump(); } }");
  WarAnalysis WA(*A.P, *A.CG);
  ASSERT_EQ(WA.regions().size(), 1u);
  EXPECT_TRUE(WA.regions()[0].War.count(A.P->findGlobal("total")));
}

TEST(War, RefParamWritesResolved) {
  auto A = analyze("static y = 0;\n"
                   "fn put(r: &int) { *r = 5; }\n"
                   "fn main() { atomic { put(&y); } }");
  WarAnalysis WA(*A.P, *A.CG);
  ASSERT_EQ(WA.regions().size(), 1u);
  EXPECT_TRUE(WA.regions()[0].Omega.count(A.P->findGlobal("y")));
}

TEST(War, FunctionSummariesTransitive) {
  auto A = analyze("static g = 0;\n"
                   "fn inner() { g = 1; }\n"
                   "fn outer() { inner(); }\n"
                   "fn main() { outer(); }");
  WarAnalysis WA(*A.P, *A.CG);
  const RwSummary &S = WA.summary(A.P->functionByName("outer")->id());
  EXPECT_TRUE(S.WriteGlobals.count(A.P->findGlobal("g")));
}

} // namespace
