//===- Compiler.cpp - Ocelot compilation pipeline ------------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ocelot/Compiler.h"

#include "frontend/Lowering.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "ir/IRVerifier.h"
#include "ocelot/PolicyBuilder.h"
#include "ocelot/RegionChecker.h"

#include <cassert>
#include <chrono>

using namespace ocelot;

const char *ocelot::execModelName(ExecModel M) {
  switch (M) {
  case ExecModel::JitOnly:
    return "jit-only";
  case ExecModel::AtomicsOnly:
    return "atomics-only";
  case ExecModel::Ocelot:
    return "ocelot";
  case ExecModel::CheckOnly:
    return "check-only";
  }
  return "?";
}

const char *ocelot::compilePassName(CompilePass P) {
  switch (P) {
  case CompilePass::Parse:
    return "parse";
  case CompilePass::Sema:
    return "sema";
  case CompilePass::Lower:
    return "lower";
  case CompilePass::Verify:
    return "verify";
  case CompilePass::CallGraph:
    return "callgraph";
  case CompilePass::Taint:
    return "taint";
  case CompilePass::Policies:
    return "policies";
  case CompilePass::Regions:
    return "regions";
  case CompilePass::War:
    return "war";
  case CompilePass::Image:
    return "image";
  }
  return "?";
}

namespace {

/// Adds the wall time of its scope to one pass's slot in PassMs.
class PassTimer {
public:
  PassTimer(CompileResult &R, CompilePass P)
      : Slot(R.PassMs[static_cast<size_t>(P)]),
        Start(std::chrono::steady_clock::now()) {}
  PassTimer(const PassTimer &) = delete;
  PassTimer &operator=(const PassTimer &) = delete;
  ~PassTimer() {
    Slot += std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - Start)
                .count();
  }

private:
  double &Slot;
  std::chrono::steady_clock::time_point Start;
};

void stripRegions(Program &P) {
  for (int F = 0; F < P.numFunctions(); ++F) {
    Function *Fn = P.function(F);
    for (int B = 0; B < Fn->numBlocks(); ++B) {
      auto &Instrs = Fn->block(B)->instructions();
      std::erase_if(Instrs,
                    [](const Instruction &I) { return I.isRegionBound(); });
    }
  }
}

int countSourceLines(const std::string &Source) {
  int Lines = 0;
  bool NonBlank = false;
  for (char C : Source) {
    if (C == '\n') {
      if (NonBlank)
        ++Lines;
      NonBlank = false;
    } else if (C != ' ' && C != '\t' && C != '\r') {
      NonBlank = true;
    }
  }
  if (NonBlank)
    ++Lines;
  return Lines;
}

bool containsLoop(const std::vector<StmtPtr> &Stmts) {
  for (const StmtPtr &S : Stmts) {
    if (S->Kind == StmtKind::For)
      return true;
    if (containsLoop(S->Then) || containsLoop(S->Else) ||
        containsLoop(S->Body))
      return true;
  }
  return false;
}

void countStmts(const std::vector<StmtPtr> &Stmts, EffortStats &E) {
  for (const StmtPtr &S : Stmts) {
    switch (S->Kind) {
    case StmtKind::Let:
      if (S->IsFresh)
        ++E.FreshAnnots;
      if (S->IsConsistent)
        ++E.ConsistentAnnots;
      break;
    case StmtKind::Annot:
      if (S->AnnotFresh && S->AnnotConsistent)
        ++E.FreshConsistentAnnots;
      else if (S->AnnotFresh)
        ++E.FreshAnnots;
      else
        ++E.ConsistentAnnots;
      break;
    case StmtKind::Atomic:
      ++E.ManualRegions;
      if (containsLoop(S->Body))
        ++E.ManualRegionsWithLoops;
      break;
    default:
      break;
    }
    countStmts(S->Then, E);
    countStmts(S->Else, E);
    countStmts(S->Body, E);
  }
}

EffortStats computeEffort(const std::string &Source, const Module &M) {
  EffortStats E;
  E.SourceLines = countSourceLines(Source);
  for (const IoDecl &Io : M.Ios)
    E.IoDeclNames += static_cast<int>(Io.Names.size());
  for (const FnDecl &F : M.Functions)
    countStmts(F.Body, E);
  return E;
}

int sensorOfChain(const Program &P, const ProvChain &Chain) {
  assert(!Chain.empty());
  const InstrRef &Last = Chain.back();
  const Function *F = P.function(Last.Func);
  const Instruction *I = F->instrAt(F->findLabel(Last.Label));
  assert(I && I->Op == Opcode::Input && "chains must end at an input");
  return I->SensorId;
}

MonitorPlan buildMonitorPlan(const Program &P, const TaintAnalysis &TA,
                             const PolicySet &PS) {
  MonitorPlan Plan;
  for (const FreshPolicy &Pol : PS.Fresh) {
    std::set<InstrRef> InputOps;
    for (const ProvChain &C : Pol.Inputs)
      InputOps.insert(C.back());
    const Function *F = P.function(Pol.DeclFunc);
    const Instruction *Marker = F->instrAt(F->findLabel(Pol.Decl.Label));
    assert(Marker && Marker->Op == Opcode::Fresh);
    for (const InstrRef &Use : Pol.Uses) {
      Plan.UseChecks[Use].insert(InputOps.begin(), InputOps.end());
      if (Marker->A.isReg())
        Plan.UseRegs[Use].insert(Marker->A.Reg);
    }
  }
  for (const ConsistentPolicy &Pol : PS.Consistent) {
    ConsistentSetPlan SP;
    SP.SetId = Pol.SetId;
    for (const ProvChain &C : Pol.Inputs) {
      // Expand rooted chains to absolute so the runtime can match them
      // against its call stack.
      if (Pol.RootFunc == P.mainFunction()) {
        SP.Members.push_back(C);
        SP.MemberSensors.push_back(sensorOfChain(P, C));
      } else {
        for (const ProvChain &Pi : TA.contexts(Pol.RootFunc)) {
          ProvChain Abs = Pi;
          Abs.insert(Abs.end(), C.begin(), C.end());
          SP.Members.push_back(std::move(Abs));
          SP.MemberSensors.push_back(sensorOfChain(P, C));
        }
      }
    }
    Plan.Sets.push_back(std::move(SP));
  }
  return Plan;
}

} // namespace

CompileResult ocelot::detail::runCompilePipeline(const std::string &Source,
                                                 const CompileOptions &Opts,
                                                 DiagnosticEngine &Diags) {
  CompileResult R;
  auto Timed = [&](CompilePass Pass, auto &&Fn) {
    PassTimer T(R, Pass);
    return Fn();
  };
  auto Verify = [&] {
    return Timed(CompilePass::Verify,
                 [&] { return verifyProgram(*R.Prog, Diags); });
  };

  std::unique_ptr<Module> M = Timed(
      CompilePass::Parse, [&] { return Parser::parseSource(Source, Diags); });
  if (Diags.hasErrors())
    return R;
  if (!Timed(CompilePass::Sema, [&] { return checkModule(*M, Diags); }))
    return R;
  R.Effort = computeEffort(Source, *M);

  R.Prog = Timed(CompilePass::Lower, [&] { return lowerModule(*M, Diags); });
  if (!R.Prog)
    return R;
  if (Opts.Verify && !Verify())
    return R;

  CallGraph CG =
      Timed(CompilePass::CallGraph, [&] { return CallGraph(*R.Prog); });
  if (CG.hasCycle()) {
    Diags.error({}, "call graph is cyclic after lowering");
    return R;
  }
  TaintAnalysis TA =
      Timed(CompilePass::Taint, [&] { return TaintAnalysis(*R.Prog, CG); });
  R.Policies = Timed(CompilePass::Policies, [&] {
    return buildPolicies(*R.Prog, CG, TA, Diags);
  });
  if (Diags.hasErrors())
    return R;

  Timed(CompilePass::Regions, [&] {
    switch (Opts.Model) {
    case ExecModel::JitOnly:
      stripRegions(*R.Prog);
      break;
    case ExecModel::AtomicsOnly:
      break; // Manual regions stay; nothing inferred.
    case ExecModel::Ocelot:
      R.InferredRegions = inferAtomicRegions(*R.Prog, TA, R.Policies, Diags);
      break;
    case ExecModel::CheckOnly: {
      DiagnosticEngine CheckDiags;
      R.PlacementValid =
          checkRegionPlacement(*R.Prog, TA, R.Policies, CheckDiags);
      for (const Diagnostic &D : CheckDiags.diagnostics())
        Diags.warning(D.Loc, D.Message);
      break;
    }
    }
  });
  if (Diags.hasErrors())
    return R;

  if (Opts.Verify && !Verify())
    return R;

  if (Opts.Model == ExecModel::Ocelot && Opts.SelfCheck) {
    if (!Timed(CompilePass::Regions, [&] {
          return checkRegionPlacement(*R.Prog, TA, R.Policies, Diags);
        }))
      return R;
    R.PlacementValid = true;
  }

  Timed(CompilePass::War, [&] {
    R.Regions = WarAnalysis(*R.Prog, CG).regions();
    R.Monitor = buildMonitorPlan(*R.Prog, TA, R.Policies);
  });
  R.Ok = true;
  return R;
}
