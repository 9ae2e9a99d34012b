//===- PolicyBuilder.cpp - Annotation to policy mapping ------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ocelot/PolicyBuilder.h"

#include <algorithm>
#include <map>

using namespace ocelot;

namespace {

/// All instructions in \p F using register \p Reg, excluding \p ExcludeLabel
/// (the annotation marker itself). Conditional branches whose condition is
/// pure dataflow from \p Reg also count: the paper's fresh-use region
/// extends through the branch into the join (Fig. 2/3 — the alarm decision
/// is exactly what freshness protects). Copies bound to other variables are
/// not uses (checkUse is over free variables of expressions).
std::vector<InstrRef> collectUses(const Function &F, int Reg,
                                  uint32_t ExcludeLabel) {
  // Registers derived from Reg through pure dataflow ops.
  std::set<int> Derived = {Reg};
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (int B = 0; B < F.numBlocks(); ++B)
      for (const Instruction &I : F.block(B)->instructions()) {
        if (I.Dst < 0 || Derived.count(I.Dst))
          continue;
        if (I.Op != Opcode::Bin && I.Op != Opcode::Un && I.Op != Opcode::Mov)
          continue;
        std::vector<int> Regs;
        I.collectUsedRegs(Regs);
        for (int U : Regs)
          if (Derived.count(U)) {
            Derived.insert(I.Dst);
            Changed = true;
            break;
          }
      }
  }

  std::vector<InstrRef> Uses;
  std::vector<int> Regs;
  for (int B = 0; B < F.numBlocks(); ++B)
    for (const Instruction &I : F.block(B)->instructions()) {
      if (I.Label == ExcludeLabel)
        continue;
      Regs.clear();
      I.collectUsedRegs(Regs);
      bool Direct = std::find(Regs.begin(), Regs.end(), Reg) != Regs.end();
      bool ControlUse = I.Op == Opcode::CondBr && I.A.isReg() &&
                        Derived.count(I.A.Reg);
      if (Direct || ControlUse)
        Uses.push_back(InstrRef(F.id(), I.Label));
    }
  return Uses;
}

} // namespace

PolicySet ocelot::buildPolicies(const Program &P, const CallGraph &CG,
                                const TaintAnalysis &TA,
                                DiagnosticEngine &Diags) {
  (void)CG;
  PolicySet PS;
  // SetId -> partially built consistent policy.
  std::map<int, ConsistentPolicy> Consistent;
  // SetId -> (per-decl self-containment, decl functions).
  std::map<int, bool> SetSelfContained;
  std::map<int, std::vector<std::pair<int, TokenSet>>> SetDeclTaints;

  int NextId = 0;
  for (int FI = 0; FI < P.numFunctions(); ++FI) {
    const Function &F = *P.function(FI);
    const FunctionTaint &FT = TA.functionTaint(FI);
    for (int B = 0; B < F.numBlocks(); ++B) {
      for (const Instruction &I : F.block(B)->instructions()) {
        if (!I.isAnnotation())
          continue;
        TokenSet Taint;
        auto It = FT.AnnotTaint.find(I.Label);
        if (It != FT.AnnotTaint.end())
          Taint = It->second;

        if (I.Op == Opcode::Fresh) {
          if (Taint.empty()) {
            Diags.warning(I.Loc, "Fresh(" + I.VarName +
                                     ") depends on no input operations; "
                                     "the annotation has no effect");
            continue;
          }
          FreshPolicy Pol;
          Pol.Id = NextId++;
          Pol.Decl = InstrRef(FI, I.Label);
          Pol.VarName = I.VarName;
          Pol.DeclFunc = FI;
          if (TaintAnalysis::isSelfContained(Taint)) {
            Pol.RootFunc = FI;
            Pol.Inputs = TA.resolveRelative(Taint);
          } else {
            Pol.RootFunc = P.mainFunction();
            Pol.Inputs = TA.resolveAbsolute(FI, Taint);
          }
          if (I.A.isReg())
            Pol.Uses = collectUses(F, I.A.Reg, I.Label);
          PS.Fresh.push_back(std::move(Pol));
          continue;
        }

        // Consistent marker: accumulate into its set.
        ConsistentPolicy &Pol = Consistent[I.SetId];
        if (Pol.SetId < 0) {
          Pol.SetId = I.SetId;
          SetSelfContained[I.SetId] = true;
        }
        Pol.Decls.push_back(InstrRef(FI, I.Label));
        Pol.VarNames.push_back(I.VarName);
        SetSelfContained[I.SetId] =
            SetSelfContained[I.SetId] && TaintAnalysis::isSelfContained(Taint);
        SetDeclTaints[I.SetId].push_back({FI, Taint});
      }
    }
  }

  for (auto &[SetId, Pol] : Consistent) {
    // A set rooted in a single function with self-contained taint keeps
    // relative chains; otherwise expand to absolute.
    bool SameFunc = true;
    for (const InstrRef &D : Pol.Decls)
      if (D.Func != Pol.Decls[0].Func)
        SameFunc = false;
    std::vector<ProvChain> Inputs;
    bool Relative = SameFunc && SetSelfContained[SetId];
    Pol.RootFunc = Relative ? Pol.Decls[0].Func : P.mainFunction();
    for (const auto &[Func, Taint] : SetDeclTaints[SetId]) {
      std::vector<ProvChain> C = Relative ? TA.resolveRelative(Taint)
                                          : TA.resolveAbsolute(Func, Taint);
      Inputs.insert(Inputs.end(), C.begin(), C.end());
    }
    std::sort(Inputs.begin(), Inputs.end());
    Inputs.erase(std::unique(Inputs.begin(), Inputs.end()), Inputs.end());
    if (Inputs.empty()) {
      Diags.warning({}, "consistent set " + std::to_string(SetId) +
                            " depends on no input operations; dropped");
      continue;
    }
    if (Pol.Decls.size() < 2 && Inputs.size() < 2)
      Diags.warning({}, "consistent set " + std::to_string(SetId) +
                            " has a single member and a single input; "
                            "consistency is trivial");
    Pol.Id = NextId++;
    Pol.Inputs = std::move(Inputs);
    PS.Consistent.push_back(std::move(Pol));
  }
  return PS;
}
