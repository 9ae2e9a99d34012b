//===- TaintAnalysis.cpp - Input-dependence analysis ---------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/TaintAnalysis.h"

#include "analysis/Dominators.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <iterator>
#include <queue>

using namespace ocelot;

namespace {

/// A block's out-state: only the registers that are live out of the block
/// and carry taint, sorted by register id.
using SparseRegs = std::vector<std::pair<int, TokenSet>>;

const TokenSet NoTokens;

/// Joins the registers \p Keep (sorted) of \p Regs into \p Out, skipping
/// empty ones. \returns true if \p Out grew.
bool joinRegs(SparseRegs &Out, const std::vector<int> &Keep,
              const std::vector<TokenSet> &Regs) {
  bool Grew = false;
  SparseRegs Joined;
  Joined.reserve(std::max(Out.size(), Keep.size()));
  size_t OI = 0;
  for (int R : Keep) {
    const TokenSet &T = Regs[static_cast<size_t>(R)];
    if (T.empty())
      continue;
    while (OI < Out.size() && Out[OI].first < R)
      Joined.push_back(std::move(Out[OI++]));
    if (OI < Out.size() && Out[OI].first == R) {
      Grew |= Out[OI].second.mergeFrom(T);
      Joined.push_back(std::move(Out[OI++]));
    } else {
      Joined.emplace_back(R, T);
      Grew = true;
    }
  }
  while (OI < Out.size())
    Joined.push_back(std::move(Out[OI++]));
  Out = std::move(Joined);
  return Grew;
}

/// Sorted registers live out of each block: read on some path before being
/// redefined, counting every register operand as a read. \p Order lists
/// every block (reverse postorder first, so it is walked backwards).
std::vector<std::vector<int>>
liveOut(const Function &F, const std::vector<int> &Order,
        const std::vector<std::vector<int>> &Succs) {
  int NumBlocks = F.numBlocks();
  std::vector<std::vector<int>> Use(NumBlocks), Def(NumBlocks);
  std::vector<int> UseStamp(F.numRegs(), -1), DefStamp(F.numRegs(), -1);
  for (int B = 0; B < NumBlocks; ++B) {
    auto Read = [&](const Operand &O) {
      if (O.isReg() && DefStamp[O.Reg] != B && UseStamp[O.Reg] != B) {
        UseStamp[O.Reg] = B;
        Use[B].push_back(O.Reg);
      }
    };
    for (const Instruction &I : F.block(B)->instructions()) {
      Read(I.A);
      Read(I.B);
      for (const Operand &A : I.Args)
        Read(A);
      if (I.Dst >= 0 && DefStamp[I.Dst] != B) {
        DefStamp[I.Dst] = B;
        Def[B].push_back(I.Dst);
      }
    }
    std::sort(Use[B].begin(), Use[B].end());
    std::sort(Def[B].begin(), Def[B].end());
  }

  std::vector<std::vector<int>> In(NumBlocks), Out(NumBlocks);
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
      int B = *It;
      Out[B].clear();
      for (int S : Succs[B]) {
        std::vector<int> Merged;
        std::set_union(Out[B].begin(), Out[B].end(), In[S].begin(),
                       In[S].end(), std::back_inserter(Merged));
        Out[B] = std::move(Merged);
      }
      std::vector<int> Through, NewIn;
      std::set_difference(Out[B].begin(), Out[B].end(), Def[B].begin(),
                          Def[B].end(), std::back_inserter(Through));
      std::set_union(Use[B].begin(), Use[B].end(), Through.begin(),
                     Through.end(), std::back_inserter(NewIn));
      if (NewIn != In[B]) {
        In[B] = std::move(NewIn);
        Changed = true;
      }
    }
  }
  return Out;
}

} // namespace

bool TokenSet::mergeFrom(const TokenSet &O) {
  bool Changed = false;
  for (int X : O.Params)
    Changed |= Params.insert(X).second;
  for (int X : O.RefContents)
    Changed |= RefContents.insert(X).second;
  for (const ProvChain &C : O.Locals)
    Changed |= Locals.insert(C).second;
  for (int X : O.Globals)
    Changed |= Globals.insert(X).second;
  return Changed;
}

TaintAnalysis::TaintAnalysis(const Program &P, const CallGraph &CG)
    : P(P), CG(CG) {
  assert(!CG.hasCycle() && "taint analysis requires an acyclic call graph");
  FT.resize(P.numFunctions());
  GlobalContent.resize(P.numGlobals());
  Contexts.resize(P.numFunctions());
  for (int F = 0; F < P.numFunctions(); ++F)
    FT[F].RegTaint.resize(P.function(F)->numRegs());
  // Callees first so summaries are available at call sites.
  for (int F : CG.bottomUpOrder())
    analyzeFunction(F);
  computeContexts();
  computeGlobalContent();
}

TokenSet TaintAnalysis::translateCalleeTokens(
    const Instruction &Call, const TokenSet &CalleeTokens,
    const std::vector<TokenSet> &ArgTokens, int CallerFunc) const {
  TokenSet Out;
  for (int I : CalleeTokens.Params)
    if (I < static_cast<int>(ArgTokens.size()))
      Out.mergeFrom(ArgTokens[static_cast<size_t>(I)]);
  for (int I : CalleeTokens.RefContents) {
    assert(I < static_cast<int>(Call.ArgRefGlobal.size()) &&
           Call.ArgRefGlobal[static_cast<size_t>(I)] >= 0 &&
           "ref content token for non-ref argument");
    Out.Globals.insert(Call.ArgRefGlobal[static_cast<size_t>(I)]);
  }
  for (const ProvChain &C : CalleeTokens.Locals) {
    ProvChain Prefixed;
    Prefixed.reserve(C.size() + 1);
    Prefixed.push_back(InstrRef(CallerFunc, Call.Label));
    Prefixed.insert(Prefixed.end(), C.begin(), C.end());
    Out.Locals.insert(std::move(Prefixed));
  }
  for (int G : CalleeTokens.Globals)
    Out.Globals.insert(G);
  return Out;
}

void TaintAnalysis::analyzeFunction(int Func) {
  const Function &F = *P.function(Func);
  FunctionTaint &Res = FT[Func];
  int NumBlocks = F.numBlocks();
  int NumRegs = F.numRegs();

  // Control dependence (transitive) via the post-dominator tree.
  DominatorTree PDT = DominatorTree::computePostDominators(F);
  std::vector<std::set<int>> CtrlDeps(NumBlocks); // block -> branch blocks
  for (int C = 0; C < NumBlocks; ++C) {
    const BasicBlock *BB = F.block(C);
    if (!BB->hasTerminator() || BB->terminator().Op != Opcode::CondBr)
      continue;
    for (int S : BB->successors()) {
      int Runner = S;
      while (Runner >= 0 && Runner != PDT.idom(C)) {
        if (Runner != C)
          CtrlDeps[Runner].insert(C);
        Runner = PDT.idom(Runner);
      }
    }
  }
  // Transitive closure (nesting where the inner condition is defined
  // outside the outer branch still inherits the outer control taint).
  for (bool Grown = true; Grown;) {
    Grown = false;
    for (int B = 0; B < NumBlocks; ++B) {
      std::set<int> Add;
      for (int C : CtrlDeps[B])
        for (int CC : CtrlDeps[C])
          if (!CtrlDeps[B].count(CC))
            Add.insert(CC);
      if (!Add.empty()) {
        CtrlDeps[B].insert(Add.begin(), Add.end());
        Grown = true;
      }
    }
  }

  // Who reads what: blocks control-dependent on each branch block, and
  // blocks that load through each reference parameter.
  std::vector<std::vector<int>> CtrlDependents(NumBlocks);
  for (int B = 0; B < NumBlocks; ++B)
    for (int C : CtrlDeps[B])
      CtrlDependents[C].push_back(B);
  std::vector<std::vector<int>> RefReaders(F.numParams());
  for (int B = 0; B < NumBlocks; ++B)
    for (const Instruction &I : F.block(B)->instructions())
      if (I.Op == Opcode::LoadInd && I.A.isReg() &&
          (RefReaders[I.A.Reg].empty() || RefReaders[I.A.Reg].back() != B))
        RefReaders[I.A.Reg].push_back(B);

  std::vector<SparseRegs> BlockOut(NumBlocks);
  std::vector<TokenSet> CondTaint(NumBlocks); // taint of CondBr conditions
  // Flow-insensitive: everything stored through a reference parameter
  // anywhere in the function is visible to every load through it.
  std::vector<TokenSet> RefLocalWritten(F.numParams());
  auto Preds = F.computePredecessors();
  std::vector<std::vector<int>> Succs(NumBlocks);
  for (int B = 0; B < NumBlocks; ++B)
    Succs[B] = F.block(B)->successors();

  // Worklist of blocks keyed by reverse-postorder position, so a block is
  // visited after its forward predecessors. Every block (unreachable ones
  // included) is visited once; afterwards a block is re-queued only when
  // something it reads grows: a predecessor's out-state, the condition
  // taint of a branch it is control-dependent on, or the stores through a
  // reference parameter it loads from.
  std::vector<int> Order = reversePostOrder(F);
  std::vector<std::vector<int>> LiveOut = liveOut(F, Order, Succs);
  std::vector<int> Position(NumBlocks);
  for (int I = 0; I < NumBlocks; ++I)
    Position[Order[I]] = I;
  std::priority_queue<int, std::vector<int>, std::greater<int>> Work;
  std::vector<char> Queued(NumBlocks, 1);
  for (int I = 0; I < NumBlocks; ++I)
    Work.push(I);
  auto Enqueue = [&](const std::vector<int> &Blocks) {
    for (int B : Blocks)
      if (!Queued[B]) {
        Queued[B] = 1;
        Work.push(Position[B]);
      }
  };

  // The entry state, reused across visits. Touched lists the registers that
  // may be non-empty; every other register is empty.
  std::vector<TokenSet> Regs(NumRegs);
  std::vector<char> IsTouched(NumRegs, 0);
  std::vector<int> Touched;
  auto Touch = [&](int R) -> TokenSet & {
    if (!IsTouched[R]) {
      IsTouched[R] = 1;
      Touched.push_back(R);
    }
    return Regs[static_cast<size_t>(R)];
  };
  auto TokensOf = [&](Operand O) -> const TokenSet & {
    return O.isReg() ? Regs[static_cast<size_t>(O.Reg)] : NoTokens;
  };

  while (!Work.empty()) {
    int B = Order[Work.top()];
    Work.pop();
    Queued[B] = 0;

    // Entry state: merge of predecessors (params at the entry block).
    for (int R : Touched) {
      Regs[static_cast<size_t>(R)] = TokenSet();
      IsTouched[R] = 0;
    }
    Touched.clear();
    if (B == 0) {
      for (int I = 0; I < F.numParams(); ++I)
        if (!F.paramIsRef(I))
          Touch(I).Params.insert(I);
    }
    for (int Pr : Preds[B])
      for (const auto &[R, T] : BlockOut[Pr])
        Touch(R).mergeFrom(T);

    // Control taint for definitions in this block.
    TokenSet Ctrl;
    for (int C : CtrlDeps[B])
      Ctrl.mergeFrom(CondTaint[C]);

    auto Define = [&](int Dst, TokenSet T) {
      if (Dst < 0)
        return;
      T.mergeFrom(Ctrl);
      TokenSet &D = Touch(Dst);
      D = std::move(T);
      Res.RegTaint[static_cast<size_t>(Dst)].mergeFrom(D);
    };

    for (const Instruction &I : F.block(B)->instructions()) {
      switch (I.Op) {
      case Opcode::Const:
        Define(I.Dst, TokenSet());
        break;
      case Opcode::Mov:
      case Opcode::Un:
        Define(I.Dst, TokensOf(I.A));
        break;
      case Opcode::Bin: {
        TokenSet T = TokensOf(I.A);
        T.mergeFrom(TokensOf(I.B));
        Define(I.Dst, std::move(T));
        break;
      }
      case Opcode::LoadG: {
        TokenSet T;
        T.Globals.insert(I.GlobalId);
        Define(I.Dst, std::move(T));
        break;
      }
      case Opcode::StoreG: {
        TokenSet T = TokensOf(I.A);
        T.mergeFrom(Ctrl);
        Res.GlobalWrites[I.GlobalId].mergeFrom(T);
        break;
      }
      case Opcode::LoadA: {
        TokenSet T;
        T.Globals.insert(I.GlobalId);
        T.mergeFrom(TokensOf(I.A)); // index selects the element
        Define(I.Dst, std::move(T));
        break;
      }
      case Opcode::StoreA: {
        TokenSet T = TokensOf(I.B);
        T.mergeFrom(TokensOf(I.A));
        T.mergeFrom(Ctrl);
        Res.GlobalWrites[I.GlobalId].mergeFrom(T);
        break;
      }
      case Opcode::LoadInd: {
        assert(I.A.isReg() && I.A.Reg < F.numParams() &&
               F.paramIsRef(I.A.Reg) && "deref of a non-reference");
        TokenSet T;
        T.RefContents.insert(I.A.Reg);
        T.mergeFrom(RefLocalWritten[static_cast<size_t>(I.A.Reg)]);
        Define(I.Dst, std::move(T));
        break;
      }
      case Opcode::StoreInd: {
        assert(I.A.isReg() && I.A.Reg < F.numParams() &&
               F.paramIsRef(I.A.Reg) && "store through a non-reference");
        TokenSet T = TokensOf(I.B);
        T.mergeFrom(Ctrl);
        Res.RefOut[I.A.Reg].mergeFrom(T);
        if (RefLocalWritten[static_cast<size_t>(I.A.Reg)].mergeFrom(T))
          Enqueue(RefReaders[static_cast<size_t>(I.A.Reg)]);
        break;
      }
      case Opcode::Input: {
        TokenSet T;
        T.Locals.insert(ProvChain{InstrRef(Func, I.Label)});
        Define(I.Dst, std::move(T));
        break;
      }
      case Opcode::Call: {
        const FunctionTaint &Callee = FT[I.Callee];
        std::vector<TokenSet> ArgTokens;
        ArgTokens.reserve(I.Args.size());
        for (const Operand &A : I.Args)
          ArgTokens.push_back(TokensOf(A));
        auto &Recorded = Res.CallArgTaint[I.Label];
        if (Recorded.size() != ArgTokens.size())
          Recorded.resize(ArgTokens.size());
        for (size_t AI = 0; AI < ArgTokens.size(); ++AI)
          Recorded[AI].mergeFrom(ArgTokens[AI]);

        Define(I.Dst, translateCalleeTokens(I, Callee.Ret, ArgTokens, Func));
        // Callee stores through our ref arguments hit known globals.
        for (const auto &[ParamIdx, T] : Callee.RefOut) {
          int Target = I.ArgRefGlobal[static_cast<size_t>(ParamIdx)];
          assert(Target >= 0 && "RefOut for a non-ref argument");
          TokenSet Tr = translateCalleeTokens(I, T, ArgTokens, Func);
          Tr.mergeFrom(Ctrl);
          Res.GlobalWrites[Target].mergeFrom(Tr);
        }
        for (const auto &[G, T] : Callee.GlobalWrites) {
          TokenSet Tr = translateCalleeTokens(I, T, ArgTokens, Func);
          Tr.mergeFrom(Ctrl);
          Res.GlobalWrites[G].mergeFrom(Tr);
        }
        break;
      }
      case Opcode::Ret:
        if (I.A.isReg()) {
          TokenSet T = TokensOf(I.A);
          T.mergeFrom(Ctrl);
          Res.Ret.mergeFrom(T);
        }
        break;
      case Opcode::CondBr:
        if (CondTaint[B].mergeFrom(TokensOf(I.A)))
          Enqueue(CtrlDependents[B]);
        break;
      case Opcode::Fresh:
      case Opcode::Consistent:
        Res.AnnotTaint[I.Label].mergeFrom(TokensOf(I.A));
        break;
      case Opcode::Br:
      case Opcode::AtomicStart:
      case Opcode::AtomicEnd:
      case Opcode::Output:
      case Opcode::Nop:
        break;
      }
    }

    // Registers dead past this block are dropped: the transfer function
    // only reads registers that are live into the reading block.
    if (joinRegs(BlockOut[B], LiveOut[B], Regs))
      Enqueue(Succs[B]);
  }
}

void TaintAnalysis::computeContexts() {
  // Top-down over the DAG: main has the empty context.
  int Main = P.mainFunction();
  if (Main < 0)
    return;
  Contexts[Main].push_back(ProvChain{});
  const auto &Order = CG.bottomUpOrder();
  constexpr size_t MaxContexts = 512;
  for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
    int Caller = *It;
    for (const CallSite &S : CG.callSitesIn(Caller)) {
      for (const ProvChain &Pi : Contexts[Caller]) {
        if (Contexts[S.Callee].size() >= MaxContexts)
          break;
        ProvChain C = Pi;
        C.push_back(InstrRef(Caller, S.Label));
        Contexts[S.Callee].push_back(std::move(C));
      }
    }
  }
}

void TaintAnalysis::computeGlobalContent() {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (int F = 0; F < P.numFunctions(); ++F) {
      for (const auto &[G, T] : FT[F].GlobalWrites) {
        std::set<std::pair<int, int>> Guard;
        std::set<ProvChain> Abs = resolveAbsoluteImpl(F, T, Guard);
        for (const ProvChain &C : Abs)
          if (GlobalContent[G].insert(C).second)
            Changed = true;
      }
    }
  }
}

std::set<ProvChain>
TaintAnalysis::resolveAbsolute(int Func, const TokenSet &T) const {
  std::set<std::pair<int, int>> Guard;
  return resolveAbsoluteImpl(Func, T, Guard);
}

std::set<ProvChain>
TaintAnalysis::resolveAbsoluteImpl(int Func, const TokenSet &T,
                                   std::set<std::pair<int, int>> &Guard) const {
  std::set<ProvChain> Out;
  for (const ProvChain &C : T.Locals)
    for (const ProvChain &Pi : Contexts[Func]) {
      ProvChain Abs = Pi;
      Abs.insert(Abs.end(), C.begin(), C.end());
      Out.insert(std::move(Abs));
    }
  for (int G : T.Globals)
    Out.insert(GlobalContent[G].begin(), GlobalContent[G].end());
  for (int ParamIdx : T.Params) {
    if (!Guard.insert({Func, ParamIdx}).second)
      continue;
    for (const CallSite &S : CG.callersOf(Func)) {
      auto It = FT[S.Caller].CallArgTaint.find(S.Label);
      if (It == FT[S.Caller].CallArgTaint.end())
        continue;
      if (ParamIdx >= static_cast<int>(It->second.size()))
        continue;
      std::set<ProvChain> Up = resolveAbsoluteImpl(
          S.Caller, It->second[static_cast<size_t>(ParamIdx)], Guard);
      Out.insert(Up.begin(), Up.end());
    }
  }
  for (int ParamIdx : T.RefContents) {
    for (const CallSite &S : CG.callersOf(Func)) {
      const Function *Caller = P.function(S.Caller);
      const Instruction *CallInst = Caller->instrAt(Caller->findLabel(S.Label));
      assert(CallInst && "call site must exist");
      int Target = CallInst->ArgRefGlobal[static_cast<size_t>(ParamIdx)];
      assert(Target >= 0 && "ref content for non-ref argument");
      Out.insert(GlobalContent[Target].begin(), GlobalContent[Target].end());
    }
  }
  return Out;
}
