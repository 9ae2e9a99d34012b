//===- DifferentialFuzzTest.cpp - Randomized differential engine fuzzing --===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates random-but-valid OCL programs from a seeded grammar walk and
/// pins the threaded engine to the tree engine's bitwise-identical
/// observable behavior on every one of them: every RunResult field, every
/// violation record, every trace event, and the final device state (tau,
/// epoch, NVM image) must match, per activation, under continuous power
/// and energy-driven failures.
///
/// The generator emits straight-line arithmetic, nested if/else, bounded
/// for loops, helper-function calls (by value and by reference), manual
/// atomic regions, sensor reads over declared io names, fused
/// multi-channel read clusters (distinct channels flowing into one output,
/// placed inside / outside / straddling atomic regions — the shapes the
/// input-epoch oracle scores), freshness / consistency annotations, and
/// all four output kinds. It is type-aware
/// (Sema distinguishes bool from int) and respects the structural rules:
/// no recursion, no address-of on parameters or loop variables, no return
/// inside atomic regions, break/continue only from loops opened inside the
/// innermost region. Runtime traps (division by zero, division overflow,
/// out-of-bounds indices) are still generated on purpose -- trap behavior
/// must agree across engines too. A program the toolchain rejects under
/// some model is counted and skipped: the contract is "reject cleanly,
/// never crash", and the test fails only if the acceptance rate collapses
/// to zero.
///
/// The config matrix is chosen to reach every instantiation of the
/// threaded loop and every evaluated configuration: continuous power
/// without monitors (the Hot loop with the trace-off output fast path),
/// bit-vector monitors alone (the taint-off checked loop), energy-driven
/// failures with no monitor (fig8), with each monitor setting (the
/// formal monitor selects the taint loop) and with a small starvation
/// bound, table2a's pathological plan and a random plan with the bit
/// vector, and an oracle-armed config whose OracleRecords must also agree
/// bitwise; one config runs again with telemetry attached. The
/// Hot and taint-off checked loops take fused pairs; the taint loop
/// dispatches every PC's plain code, so it is the unfused reference. On
/// each engine, the formal config's violation records must also be the
/// same with the oracle off and on.
///
/// OCELOT_FUZZ_PROGRAMS sets the number of generated programs (default
/// 30, sized for the default ctest lane; the dedicated CI fuzz job raises
/// it to several hundred).
///
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "ocelot/Toolchain.h"
#include "runtime/Simulation.h"
#include "support/ParseNumber.h"
#include "telemetry/TraceSink.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

using namespace ocelot;

namespace {

/// OCELOT_FUZZ_PROGRAMS, or 30 when it is unset. Anything but a positive
/// decimal count fails the test instead of running the default budget.
int fuzzBudget() {
  const char *V = std::getenv("OCELOT_FUZZ_PROGRAMS");
  if (!V)
    return 30;
  unsigned N = 0;
  if (!parseUnsigned(std::string_view(V), N) || N == 0 ||
      N > static_cast<unsigned>(std::numeric_limits<int>::max())) {
    ADD_FAILURE() << "OCELOT_FUZZ_PROGRAMS='" << V
                  << "' is not a positive decimal program count";
    return 0;
  }
  return static_cast<int>(N);
}

// -- Random program generator ----------------------------------------------

/// Grammar-directed generator. Every emitted program is grammatically and
/// type-correct by construction; semantic rejections (e.g. region
/// inference refusing a placement) are left to the toolchain.
class ProgramGen {
public:
  explicit ProgramGen(uint64_t Seed) : Rng(Seed) {}

  std::string generate() {
    genDecls();
    int Helpers = rnd(3); // 0..2
    for (int H = 0; H < Helpers; ++H)
      genHelper(H);
    genMain();
    return Out.str();
  }

private:
  struct Var {
    std::string Name;
    bool IsBool = false;
    bool AddrOk = false; ///< let-bound scalar (not a param / loop var).
  };
  struct Helper {
    std::string Name;
    int IntParams = 0;
    bool RefParam = false; ///< leading `r: &int` parameter.
  };

  std::mt19937_64 Rng;
  std::ostringstream Out;
  std::vector<std::string> Sensors;
  std::vector<std::string> GlobalScalars;
  std::vector<std::pair<std::string, int>> GlobalArrays; // name, size
  std::vector<Helper> Helpers; ///< Completed helpers only: no recursion.

  // Per-function state.
  std::vector<Var> Scope;
  std::vector<std::pair<std::string, int>> LocalArrays;
  bool HaveRef = false; ///< Current function has an `r: &int` param.
  int NextVar = 0;
  int Budget = 0;
  int ConsistentBase = 0; ///< Set-id space; sets never span functions.
  int LoopsInRegion = 0;  ///< Loops opened since the innermost `atomic {`.
  int Ind = 1;

  int rnd(int N) { return static_cast<int>(Rng() % static_cast<uint64_t>(N)); }
  bool chance(int Pct) { return rnd(100) < Pct; }
  std::string ind() const { return std::string(2 * Ind, ' '); }
  std::string newVar() { return "v" + std::to_string(NextVar++); }
  int setId() { return ConsistentBase + rnd(2); }

  // -- Declarations --------------------------------------------------------

  void genDecls() {
    int NumSensors = 1 + rnd(3);
    Out << "io";
    for (int S = 0; S < NumSensors; ++S) {
      Sensors.push_back("s" + std::to_string(S));
      Out << (S ? ", " : " ") << Sensors.back();
    }
    Out << ";\n";
    int NumScalars = 1 + rnd(3);
    for (int G = 0; G < NumScalars; ++G) {
      GlobalScalars.push_back("g" + std::to_string(G));
      Out << "static " << GlobalScalars.back() << " = " << rnd(10) << ";\n";
    }
    int NumArrays = 1 + rnd(2);
    for (int A = 0; A < NumArrays; ++A) {
      int Size = chance(50) ? 4 : 8;
      GlobalArrays.emplace_back("ga" + std::to_string(A), Size);
      Out << "static " << GlobalArrays.back().first << ": [int; " << Size
          << "];\n";
    }
    Out << "\n";
  }

  // -- Expressions ---------------------------------------------------------

  /// A literal from a small pool that includes the wrap-around and
  /// division-overflow edges (INT64_MAX, -1), so the shared integer
  /// semantics (runtime/IntegerOps.h) gets differential coverage.
  std::string intLiteral() {
    static const int64_t Pool[] = {0,   1,   2,  3,
                                   5,   7,   8,  16,
                                   63,  100, 255, -1,
                                   std::numeric_limits<int64_t>::max()};
    int64_t V = Pool[rnd(13)];
    if (V < 0)
      return "(" + std::to_string(V) + ")";
    if (chance(15))
      return "(-" + std::to_string(V) + ")";
    return std::to_string(V);
  }

  /// An in-scope int-typed scalar read, or a literal if none exists.
  std::string intVarRead() {
    std::vector<std::string> Cand;
    for (const Var &V : Scope)
      if (!V.IsBool)
        Cand.push_back(V.Name);
    for (const std::string &G : GlobalScalars)
      Cand.push_back(G);
    if (HaveRef && chance(20))
      return "(*r)";
    if (Cand.empty())
      return intLiteral();
    return Cand[rnd(static_cast<int>(Cand.size()))];
  }

  std::string arrayRead() {
    size_t NArr = GlobalArrays.size() + LocalArrays.size();
    if (NArr == 0)
      return intLiteral();
    size_t Pick = static_cast<size_t>(rnd(static_cast<int>(NArr)));
    const auto &[Name, Size] = Pick < GlobalArrays.size()
                                   ? GlobalArrays[Pick]
                                   : LocalArrays[Pick - GlobalArrays.size()];
    return Name + "[" + index(Size) + "]";
  }

  /// A mostly-in-bounds index: masked to the (power-of-two) size, with a
  /// small chance of a deliberately out-of-range literal so trap behavior
  /// gets differential coverage too.
  std::string index(int Size) {
    if (chance(4))
      return std::to_string(Size + rnd(4));
    return "(" + intExpr(1) + " & " + std::to_string(Size - 1) + ")";
  }

  std::string intExpr(int Depth) {
    if (Depth <= 0 || chance(35)) {
      int T = rnd(10);
      if (T < 4)
        return intLiteral();
      if (T < 8)
        return intVarRead();
      return arrayRead();
    }
    if (chance(10)) {
      const char *Un = chance(60) ? "-" : "~";
      return "(" + std::string(Un) + intExpr(Depth - 1) + ")";
    }
    // Division and modulo stay rare: a zero divisor traps the activation,
    // which is valid differential coverage but ends the run early.
    static const char *Ops[] = {"+", "+", "-", "-", "*",  "&",
                                "|", "^", "<<", ">>", "/", "%"};
    const char *Op = Ops[rnd(chance(80) ? 10 : 12)];
    return "(" + intExpr(Depth - 1) + " " + Op + " " + intExpr(Depth - 1) +
           ")";
  }

  std::string boolExpr(int Depth) {
    std::vector<std::string> BoolVars;
    for (const Var &V : Scope)
      if (V.IsBool)
        BoolVars.push_back(V.Name);
    if (Depth <= 0 || chance(25)) {
      if (!BoolVars.empty() && chance(50))
        return BoolVars[rnd(static_cast<int>(BoolVars.size()))];
      return chance(50) ? "true" : "false";
    }
    int K = rnd(10);
    if (K < 6) {
      static const char *Cmp[] = {"<", "<=", ">", ">=", "==", "!="};
      return "(" + intExpr(Depth - 1) + " " + Cmp[rnd(6)] + " " +
             intExpr(Depth - 1) + ")";
    }
    if (K < 8)
      return "(" + boolExpr(Depth - 1) + (chance(50) ? " && " : " || ") +
             boolExpr(Depth - 1) + ")";
    return "(!" + boolExpr(Depth - 1) + ")";
  }

  // -- Calls ---------------------------------------------------------------

  /// A call to a previously completed helper, or "" when none is callable
  /// (a ref-taking helper needs an addressable local at the call site).
  std::string callExpr() {
    std::vector<std::string> AddrOk;
    for (const Var &V : Scope)
      if (V.AddrOk && !V.IsBool)
        AddrOk.push_back(V.Name);
    std::vector<const Helper *> Cand;
    for (const Helper &H : Helpers)
      if (!H.RefParam || !AddrOk.empty())
        Cand.push_back(&H);
    if (Cand.empty())
      return "";
    const Helper &H = *Cand[rnd(static_cast<int>(Cand.size()))];
    std::string C = H.Name + "(";
    bool First = true;
    if (H.RefParam) {
      C += "&" + AddrOk[rnd(static_cast<int>(AddrOk.size()))];
      First = false;
    }
    for (int P = 0; P < H.IntParams; ++P) {
      if (!First)
        C += ", ";
      First = false;
      C += intExpr(1);
    }
    return C + ")";
  }

  // -- Statements ----------------------------------------------------------

  void letFallback() {
    std::string V = newVar();
    Out << ind() << "let " << V << " = " << intLiteral() << ";\n";
    Scope.push_back({V, false, true});
  }

  void genStmt(int Depth) {
    if (Budget <= 0)
      return;
    --Budget;
    int R = rnd(100);
    if (R < 12) { // let from a pure expression (sometimes bool-typed)
      std::string V = newVar();
      if (chance(20)) {
        Out << ind() << "let " << V << " = " << boolExpr(2) << ";\n";
        Scope.push_back({V, true, true});
      } else {
        Out << ind() << "let " << V << " = " << intExpr(2) << ";\n";
        Scope.push_back({V, false, true});
      }
    } else if (R < 26) { // sensor read, possibly annotated at the binding
      std::string V = newVar();
      std::string Qual;
      int Q = rnd(4);
      if (Q == 1)
        Qual = "fresh ";
      else if (Q == 2)
        Qual = "consistent(" + std::to_string(setId()) + ") ";
      Out << ind() << "let " << Qual << V << " = "
          << Sensors[rnd(static_cast<int>(Sensors.size()))] << "();\n";
      Scope.push_back({V, false, true});
    } else if (R < 34) { // assignment to a local scalar
      std::vector<const Var *> Ints;
      for (const Var &V : Scope)
        if (!V.IsBool && V.AddrOk)
          Ints.push_back(&V);
      if (Ints.empty())
        return letFallback();
      static const char *Ops[] = {" = ", " += ", " -= ", " *= "};
      Out << ind() << Ints[rnd(static_cast<int>(Ints.size()))]->Name
          << Ops[rnd(4)] << intExpr(2) << ";\n";
    } else if (R < 44) { // assignment to a non-volatile global scalar
      static const char *Ops[] = {" = ", " += ", " -= "};
      Out << ind()
          << GlobalScalars[rnd(static_cast<int>(GlobalScalars.size()))]
          << Ops[rnd(3)] << intExpr(2) << ";\n";
    } else if (R < 51) { // array element store (global or local array)
      size_t NArr = GlobalArrays.size() + LocalArrays.size();
      size_t Pick = static_cast<size_t>(rnd(static_cast<int>(NArr)));
      const auto &[Name, Size] =
          Pick < GlobalArrays.size()
              ? GlobalArrays[Pick]
              : LocalArrays[Pick - GlobalArrays.size()];
      Out << ind() << Name << "[" << index(Size) << "]"
          << (chance(70) ? " = " : " += ") << intExpr(2) << ";\n";
    } else if (R < 58 && HaveRef) { // store through the reference param
      Out << ind() << "*r" << (chance(70) ? " = " : " += ") << intExpr(2)
          << ";\n";
    } else if (R < 64 && Depth < 3) { // if / else
      Out << ind() << "if " << boolExpr(2) << " {\n";
      genBlock(Depth + 1);
      if (chance(45)) {
        Out << ind() << "} else {\n";
        genBlock(Depth + 1);
      }
      Out << ind() << "}\n";
    } else if (R < 71 && Depth < 3) { // bounded for (fully unrolled)
      std::string V = "i" + std::to_string(NextVar++);
      Out << ind() << "for " << V << " in 0.." << (2 + rnd(3)) << " {\n";
      Scope.push_back({V, false, false});
      ++LoopsInRegion;
      genBlock(Depth + 1);
      --LoopsInRegion;
      Scope.pop_back();
      Out << ind() << "}\n";
    } else if (R < 77 && Depth < 3) { // manual atomic region (may nest)
      Out << ind() << "atomic {\n";
      int SavedLoops = LoopsInRegion;
      LoopsInRegion = 0;
      genBlock(Depth + 1);
      LoopsInRegion = SavedLoops;
      Out << ind() << "}\n";
    } else if (R < 82 && Depth < 3 && Sensors.size() >= 2) {
      // Fused multi-channel read cluster: reads from distinct channels
      // flowing into one output — the shape the input-epoch oracle
      // scores. Placement varies: both reads and the output inside one
      // atomic region, reads straddling a region boundary, or fully
      // unprotected.
      std::string A = newVar(), B = newVar();
      int NumS = static_cast<int>(Sensors.size());
      int S0 = rnd(NumS);
      int S1 = (S0 + 1 + rnd(NumS - 1)) % NumS;
      std::string Qual;
      if (chance(40))
        Qual = "consistent(" + std::to_string(setId()) + ") ";
      switch (rnd(3)) {
      case 0: // both reads + fused output inside one region
        Out << ind() << "atomic {\n";
        ++Ind;
        Out << ind() << "let " << Qual << A << " = " << Sensors[S0]
            << "();\n";
        Out << ind() << "let " << Qual << B << " = " << Sensors[S1]
            << "();\n";
        Out << ind() << "log(" << A << " + " << B << ");\n";
        --Ind;
        Out << ind() << "}\n";
        break;
      case 1: // reads straddle a region boundary
        Out << ind() << "let " << Qual << A << " = " << Sensors[S0]
            << "();\n";
        Scope.push_back({A, false, true});
        Out << ind() << "atomic {\n";
        ++Ind;
        Out << ind() << "let " << Qual << B << " = " << Sensors[S1]
            << "();\n";
        Out << ind() << "send(" << A << " - " << B << ");\n";
        --Ind;
        Out << ind() << "}\n";
        break;
      default: // unprotected fusion across checkpoints
        Out << ind() << "let " << Qual << A << " = " << Sensors[S0]
            << "();\n";
        Out << ind() << "let " << Qual << B << " = " << Sensors[S1]
            << "();\n";
        Out << ind() << "uart(" << A << " + " << B << ");\n";
        Scope.push_back({A, false, true});
        Scope.push_back({B, false, true});
        break;
      }
    } else if (R < 86) { // output statement
      switch (rnd(5)) {
      case 0:
        Out << ind() << "log(" << intExpr(2) << ");\n";
        break;
      case 1:
        Out << ind() << "log(" << intExpr(1) << ", " << intExpr(1) << ");\n";
        break;
      case 2:
        Out << ind() << "alarm();\n";
        break;
      case 3:
        Out << ind() << "send(" << intExpr(2) << ");\n";
        break;
      default:
        Out << ind() << "uart(" << intExpr(2) << ");\n";
        break;
      }
    } else if (R < 92) { // helper call: bare statement or let-bound
      std::string C = callExpr();
      if (C.empty())
        return letFallback();
      if (chance(40)) {
        Out << ind() << C << ";\n";
      } else {
        std::string V = newVar();
        Out << ind() << "let " << V << " = " << C << ";\n";
        Scope.push_back({V, false, true});
      }
    } else if (R < 96) { // standalone annotation on an int let-local
      std::vector<const Var *> Ints;
      for (const Var &V : Scope)
        if (!V.IsBool && V.AddrOk)
          Ints.push_back(&V);
      if (Ints.empty())
        return letFallback();
      const std::string &N = Ints[rnd(static_cast<int>(Ints.size()))]->Name;
      switch (rnd(3)) {
      case 0:
        Out << ind() << "Fresh(" << N << ");\n";
        break;
      case 1:
        Out << ind() << "Consistent(" << N << ", " << setId() << ");\n";
        break;
      default:
        Out << ind() << "FreshConsistent(" << N << ", " << setId() << ");\n";
        break;
      }
    } else if (LoopsInRegion > 0 && chance(60)) {
      // Only from loops opened inside the innermost region (Sema forbids
      // escaping an atomic block through an enclosing loop).
      Out << ind() << (chance(50) ? "break;\n" : "continue;\n");
    } else {
      letFallback();
    }
  }

  void genBlock(int Depth) {
    size_t SavedScope = Scope.size();
    size_t SavedArrays = LocalArrays.size();
    ++Ind;
    std::streampos Before = Out.tellp();
    int N = 1 + rnd(3);
    for (int S = 0; S < N && Budget > 0; ++S)
      genStmt(Depth);
    if (Out.tellp() == Before)
      letFallback(); // never emit an empty block
    --Ind;
    Scope.resize(SavedScope);
    LocalArrays.resize(SavedArrays);
  }

  // -- Functions -----------------------------------------------------------

  void resetFunction(int FnIndex) {
    Scope.clear();
    LocalArrays.clear();
    HaveRef = false;
    NextVar = 0;
    LoopsInRegion = 0;
    ConsistentBase = 8 * FnIndex; // consistent sets stay function-local
    Ind = 1;
  }

  void genHelper(int H) {
    Helper Sig;
    Sig.Name = "f" + std::to_string(H);
    Sig.RefParam = chance(30);
    Sig.IntParams = rnd(3);
    resetFunction(H);
    Out << "fn " << Sig.Name << "(";
    bool First = true;
    if (Sig.RefParam) {
      Out << "r: &int";
      HaveRef = true;
      First = false;
    }
    for (int P = 0; P < Sig.IntParams; ++P) {
      if (!First)
        Out << ", ";
      First = false;
      // Appended, not "p" + to_string: GCC 12 -O3 flags that with a
      // false -Wrestrict.
      std::string Name = "p";
      Name += std::to_string(P);
      Out << Name << ": int";
      Scope.push_back({Name, false, false}); // params are not addressable
    }
    Out << ") -> int {\n";
    Budget = 8;
    // Let a local array occasionally exist before the body references one.
    if (chance(30)) {
      LocalArrays.emplace_back("a" + std::to_string(NextVar++), 4);
      Out << ind() << "let " << LocalArrays.back().first << " = [0; 4];\n";
    }
    int N = 2 + rnd(4);
    for (int S = 0; S < N && Budget > 0; ++S)
      genStmt(1);
    Out << ind() << "return " << intExpr(2) << ";\n}\n\n";
    Helpers.push_back(Sig); // visible to later helpers and main only
  }

  void genMain() {
    resetFunction(static_cast<int>(Helpers.size()));
    Out << "fn main() {\n";
    Budget = 22;
    if (chance(40)) {
      LocalArrays.emplace_back("a" + std::to_string(NextVar++), 8);
      Out << ind() << "let " << LocalArrays.back().first << " = [0; 8];\n";
    }
    int N = 4 + rnd(5);
    for (int S = 0; S < N && Budget > 0; ++S)
      genStmt(1);
    // End with an output so even trap-free straight-line programs have an
    // observable effect to compare.
    Out << ind() << "log(" << intExpr(1) << ");\n}\n";
  }
};

// -- Differential harness --------------------------------------------------

/// Everything observable about one activation must match the tree
/// reference.
void expectSameResult(const RunResult &Got, const RunResult &Ref,
                      const std::string &What) {
  EXPECT_EQ(Got.Completed, Ref.Completed) << What;
  EXPECT_EQ(Got.Starved, Ref.Starved) << What;
  EXPECT_EQ(Got.Trap, Ref.Trap) << What;
  EXPECT_EQ(Got.OnCycles, Ref.OnCycles) << What;
  EXPECT_EQ(Got.OffCycles, Ref.OffCycles) << What;
  EXPECT_EQ(Got.Steps, Ref.Steps) << What;
  EXPECT_EQ(Got.Reboots, Ref.Reboots) << What;
  EXPECT_EQ(Got.Checkpoints, Ref.Checkpoints) << What;
  EXPECT_EQ(Got.UndoLogEntries, Ref.UndoLogEntries) << What;
  EXPECT_EQ(Got.AtomicCommits, Ref.AtomicCommits) << What;
  EXPECT_EQ(Got.AtomicAborts, Ref.AtomicAborts) << What;
  EXPECT_EQ(Got.ViolatedFresh, Ref.ViolatedFresh) << What;
  EXPECT_EQ(Got.ViolatedConsistent, Ref.ViolatedConsistent) << What;
  EXPECT_EQ(Got.FinalTau, Ref.FinalTau) << What;

  EXPECT_EQ(Got.OracleFresh, Ref.OracleFresh) << What;
  EXPECT_EQ(Got.OracleStale, Ref.OracleStale) << What;
  EXPECT_EQ(Got.OracleCrossEpoch, Ref.OracleCrossEpoch) << What;
  ASSERT_EQ(Got.OracleRecords.size(), Ref.OracleRecords.size()) << What;
  for (size_t O = 0; O < Got.OracleRecords.size(); ++O)
    EXPECT_TRUE(Got.OracleRecords[O] == Ref.OracleRecords[O])
        << What << " oracle record " << O;

  ASSERT_EQ(Got.Violations.size(), Ref.Violations.size()) << What;
  for (size_t V = 0; V < Got.Violations.size(); ++V) {
    const ViolationRecord &GV = Got.Violations[V];
    const ViolationRecord &RV = Ref.Violations[V];
    EXPECT_EQ(GV.K, RV.K) << What << " violation " << V;
    EXPECT_TRUE(GV.Site == RV.Site) << What << " violation " << V;
    EXPECT_EQ(GV.SetId, RV.SetId) << What << " violation " << V;
    EXPECT_EQ(GV.Tau, RV.Tau) << What << " violation " << V;
    EXPECT_EQ(GV.detail(), RV.detail()) << What << " violation " << V;
  }

  ASSERT_EQ(Got.TraceData.Inputs.size(), Ref.TraceData.Inputs.size()) << What;
  for (size_t I = 0; I < Got.TraceData.Inputs.size(); ++I)
    EXPECT_TRUE(Got.TraceData.Inputs[I] == Ref.TraceData.Inputs[I])
        << What << " input " << I;
  ASSERT_EQ(Got.TraceData.Outputs.size(), Ref.TraceData.Outputs.size())
      << What;
  for (size_t O = 0; O < Got.TraceData.Outputs.size(); ++O) {
    EXPECT_TRUE(
        Got.TraceData.Outputs[O].sameContent(Ref.TraceData.Outputs[O]))
        << What << " output " << O;
    EXPECT_EQ(Got.TraceData.Outputs[O].Tau, Ref.TraceData.Outputs[O].Tau)
        << What << " output " << O;
  }
  EXPECT_EQ(Got.TraceData.Reboots, Ref.TraceData.Reboots) << What;
}

/// Runs \p Runs activations of one program on the tree and threaded
/// engines with identical configs, and compares every activation plus the
/// final device state. \p Traced attaches a fresh TraceSink per simulation
/// and additionally requires the two exported trace streams to be
/// byte-identical.
void runDifferential(const CompiledArtifact &A, const RunConfig &Base,
                     uint64_t Seed, int Runs, const std::string &What,
                     bool Traced = false) {
  TraceSink Sinks[2];
  int NextSink = 0;
  auto mkSim = [&](DispatchEngine E) {
    RunConfig Cfg = Base;
    Cfg.Seed = Seed;
    Cfg.Dispatch = E;
    if (Traced)
      Cfg.Telemetry = &Sinks[NextSink++];
    return Simulation(A, std::move(Cfg));
  };
  Simulation Tree = mkSim(DispatchEngine::Tree);
  Simulation Threaded = mkSim(DispatchEngine::Threaded);

  for (int Run = 0; Run < Runs; ++Run) {
    RunResult TR = Tree.runOnce();
    RunResult ThR = Threaded.runOnce();
    expectSameResult(ThR, TR,
                     What + "/run" + std::to_string(Run) +
                         " [threaded vs tree]");
    if (TR.Starved && ThR.Starved)
      break; // Device state after starvation is equal but final.
  }
  EXPECT_EQ(Threaded.tau(), Tree.tau()) << What;
  EXPECT_EQ(Threaded.epoch(), Tree.epoch()) << What;
  EXPECT_EQ(Threaded.nvmSnapshot(), Tree.nvmSnapshot()) << What;
  if (Traced) {
    EXPECT_EQ(Sinks[1].exportChromeJson(), Sinks[0].exportChromeJson())
        << What << " [threaded trace diverged]";
  }
}

/// Arming the oracle must not change any violation record. On each
/// engine, runs \p Runs
/// activations of \p Base with the oracle off and on, and compares every
/// run's records (kind, site, set, tau, detail). \returns the number of
/// records compared.
size_t expectOracleKeepsViolations(const CompiledArtifact &A,
                                 const RunConfig &Base, uint64_t Seed,
                                 int Runs, const std::string &What) {
  size_t Compared = 0;
  for (DispatchEngine E : {DispatchEngine::Tree, DispatchEngine::Threaded}) {
    auto mkSim = [&](bool Oracle) {
      RunConfig Cfg = Base;
      Cfg.Seed = Seed;
      Cfg.Dispatch = E;
      Cfg.Oracle = Oracle;
      return Simulation(A, std::move(Cfg));
    };
    Simulation Off = mkSim(false);
    Simulation On = mkSim(true);
    const std::string Engine =
        E == DispatchEngine::Tree ? " [tree]" : " [threaded]";
    for (int Run = 0; Run < Runs; ++Run) {
      RunResult ROff = Off.runOnce();
      RunResult ROn = On.runOnce();
      const std::string RunWhat =
          What + "/run" + std::to_string(Run) + Engine;
      EXPECT_EQ(ROff.Violations.size(), ROn.Violations.size()) << RunWhat;
      for (size_t V = 0;
           V < std::min(ROff.Violations.size(), ROn.Violations.size()); ++V) {
        ++Compared;
        const ViolationRecord &OffV = ROff.Violations[V];
        const ViolationRecord &OnV = ROn.Violations[V];
        EXPECT_EQ(OffV.K, OnV.K) << RunWhat << " violation " << V;
        EXPECT_TRUE(OffV.Site == OnV.Site) << RunWhat << " violation " << V;
        EXPECT_EQ(OffV.SetId, OnV.SetId) << RunWhat << " violation " << V;
        EXPECT_EQ(OffV.Tau, OnV.Tau) << RunWhat << " violation " << V;
        EXPECT_EQ(OffV.detail(), OnV.detail())
            << RunWhat << " violation " << V;
      }
      if (ROff.Starved && ROn.Starved)
        break;
    }
  }
  return Compared;
}

/// \p Src compiled under \p Model; an empty artifact when the toolchain
/// rejects it.
CompiledArtifact compileAt(const std::string &Src, ExecModel Model) {
  CompileOptions Opts;
  Opts.Model = Model;
  Compilation C = Toolchain().compile(Src, Opts);
  return C.ok() ? C.artifact() : CompiledArtifact();
}

TEST(DifferentialFuzz, TreeAndThreadedAgreeOnRandomPrograms) {
  const int Programs = fuzzBudget();
  int Valid = 0;
  int Rejected = 0;
  size_t OracleOffOnViolations = 0;
  for (int P = 0; P < Programs; ++P) {
    const uint64_t GenSeed = 0x0CE107u + 977u * static_cast<uint64_t>(P);
    std::string Src = ProgramGen(GenSeed).generate();
    SCOPED_TRACE("fuzz program " + std::to_string(P) + " (generator seed " +
                 std::to_string(GenSeed) + "):\n" + Src);
    for (ExecModel Model :
         {ExecModel::Ocelot, ExecModel::JitOnly, ExecModel::AtomicsOnly}) {
      CompiledArtifact A = compileAt(Src, Model);
      if (!A) {
        // Clean rejection (diagnostics, no crash) is in-contract.
        ++Rejected;
        continue;
      }
      ++Valid;
      std::string What =
          "p" + std::to_string(P) + "/" + execModelName(Model);

      // Continuous power, no monitors, no trace: the threaded engine's Hot
      // specialization and the trace-off output fast path.
      RunConfig Plain;
      runDifferential(A, Plain, GenSeed ^ 0xA5, 2, What + "/hot");

      // Bit-vector monitor alone: the taint-off checked loop (the formal
      // monitor's taint tracking selects the taint loop, covered below).
      RunConfig BitVec;
      BitVec.MonitorBitVector = true;
      BitVec.RecordTrace = true;
      runDifferential(A, BitVec, GenSeed ^ 0x5A, 2, What + "/bitvec");

      RunConfig Energy = BitVec;
      Energy.Plan = FailurePlan::energyDriven();
      runDifferential(A, Energy, GenSeed * 31 + 7, 4, What + "/energy");

      // Energy-driven with no monitor (fig8's loop): no PC is watched, so
      // only the energy countdown leaves the fast step header.
      RunConfig Unmonitored;
      Unmonitored.Plan = FailurePlan::energyDriven();
      Unmonitored.RecordTrace = true;
      runDifferential(A, Unmonitored, GenSeed * 37 + 3, 4,
                      What + "/energy-unmonitored");

      // The smallest starvation bound on a small capacitor (250 cycles a
      // charge): a run starves on its second failure in a row with no
      // step between them, or on a region's second abort.
      RunConfig Starving = Energy;
      Starving.Energy.CapacityCycles = 600;
      Starving.MaxAbortsPerRegion = 1;
      runDifferential(A, Starving, GenSeed * 41 + 5, 4,
                      What + "/energy-max-aborts-1");

      // table2a's pathological plan with the bit vector, and a random
      // plan: no energy model, and every PC is watched.
      RunConfig Pathological = BitVec;
      Pathological.Plan =
          FailurePlan::pathological(pathologicalPoints(A));
      Pathological.Plan.setOffTime(20000, 200000);
      runDifferential(A, Pathological, GenSeed * 43 + 11, 4,
                      What + "/pathological");
      RunConfig Random = BitVec;
      Random.Plan = FailurePlan::random(0.01);
      Random.Plan.setOffTime(50, 500);
      runDifferential(A, Random, GenSeed * 47 + 17, 4, What + "/random");

      RunConfig Full = Energy;
      Full.MonitorFormal = true;
      runDifferential(A, Full, GenSeed * 131 + 13, 4, What + "/energy-taint");
      OracleOffOnViolations += expectOracleKeepsViolations(
          A, Full, GenSeed * 131 + 13, 4, What + "/oracle-off-on");

      // Input-epoch oracle armed: every committed output's input epoch
      // span and verdict must agree bitwise across the engines.
      RunConfig Oracle = Energy;
      Oracle.Oracle = true;
      runDifferential(A, Oracle, GenSeed * 257 + 29, 4,
                      What + "/energy-oracle");

      // Same config with telemetry attached: trace hooks must not change
      // any observable result, and the per-engine trace streams must
      // match byte for byte.
      runDifferential(A, Full, GenSeed * 131 + 13, 4, What + "/energy-traced",
                      /*Traced=*/true);
    }
  }
  EXPECT_GT(Valid, 0) << "the generator produced no compilable programs";
  EXPECT_GT(OracleOffOnViolations, 0u)
      << "no violation compared with the oracle off and on";
  RecordProperty("programs", Programs);
  RecordProperty("valid_compiles", Valid);
  RecordProperty("rejected_compiles", Rejected);
  RecordProperty("oracle_off_on_violations_compared",
                 static_cast<int>(OracleOffOnViolations));
}

// A fixed regression corpus: hand-written programs that previously needed
// care in the threaded engine (trap paths, mid-pair resume shapes, fused
// candidates around region bounds, traps and reboots deep in straight-line
// runs). Each runs on the tree and threaded engines with the bit-vector
// monitor alone, the taint-off checked loop that takes fused pairs. Cheap
// enough to run unconditionally.
TEST(DifferentialFuzz, RegressionCorpus) {
  static const char *Corpus[] = {
      // Division by zero behind a fusable bin+condbr pair.
      "io s;\nfn main() { let x = s(); let y = (x - x);\n"
      "  if (x / y) > 0 { log(1); } log(2); }\n",
      // Out-of-bounds store inside an atomic region.
      "static a: [int; 4];\nfn main() { let i = 9; atomic { a[i] = 1; }\n"
      "  log(a[0]); }\n",
      // Fused-candidate pairs bracketing an atomic region boundary.
      "io s;\nstatic n = 0;\nfn main() { let fresh x = s();\n"
      "  atomic { n = (x * 2); n += 1; }\n  if x > 10 { uart(n); }\n"
      "  log(n); }\n",
      // Call/return straddling arithmetic (post-call resume is a leader).
      "static n = 0;\nfn inc(d: int) -> int { n += d; return n; }\n"
      "fn main() { let a = inc(3); let b = (a + inc(4)); log(b); }\n",
      // Reference parameter with a store through it.
      "fn bump(r: &int) -> int { *r += 5; return (*r); }\n"
      "fn main() { let x = 1; let y = bump(&x); log(x, y); }\n",
      // Trap mid-run: a long straight-line run whose interior divides by
      // zero — the threaded engine must unwind from inside the run with
      // the same state the other engines leave.
      "io s;\nstatic n = 0;\nfn main() { let x = s(); let a = x + 1;\n"
      "  let b = a * 2; let c = (b / (x - x)); let d = c + a;\n"
      "  n = d; log(n); }\n",
      // Bounds trap mid-run: loads around an out-of-range array store
      // deep in a straight-line run.
      "static a: [int; 4];\nstatic n = 0;\nfn main() { let i = 2;\n"
      "  let u = a[i]; let v = u + 7; let w = v * 3; a[i + 9] = w;\n"
      "  n = w; log(n); }\n",
      // Reboot-resume inside a run: a hot straight-line body long enough
      // that energy-driven failures interrupt it, possibly mid-pair; the
      // resume PC lands on a plain code and must replay to the same state
      // as the other engines (exercised across the energy-driven
      // runDifferential below).
      "io s;\nstatic n = 0;\nstatic m = 0;\nfn main() { let x = s();\n"
      "  let a = x + 1; let b = a + 2; let c = b + 3; let d = c + 4;\n"
      "  let e = d + 5; let f = e + 6; let g = f + 7; let h = g + 8;\n"
      "  n = h; m = (n * 2); log(n, m); }\n",
      // Run head as a branch target: looping control re-enters the
      // straight-line body at its head every iteration, and a CondBr
      // ends it.
      "io s;\nstatic n = 0;\nfn main() {\n"
      "  for i in 0..6 { let x = s(); let a = x + i; let b = a * 2;\n"
      "    n += b; }\n  log(n); }\n",
  };
  int Idx = 0;
  for (const char *Src : Corpus) {
    SCOPED_TRACE("corpus program " + std::to_string(Idx++) + ":\n" + Src);
    for (ExecModel Model :
         {ExecModel::Ocelot, ExecModel::JitOnly, ExecModel::AtomicsOnly}) {
      CompiledArtifact A = compileAt(Src, Model);
      if (!A)
        continue;
      RunConfig Cfg;
      Cfg.MonitorBitVector = true;
      Cfg.RecordTrace = true;
      Cfg.Plan = FailurePlan::energyDriven();
      runDifferential(A, Cfg, 42, 4,
                      std::string("corpus/") + execModelName(Model));
    }
  }
}

} // namespace
