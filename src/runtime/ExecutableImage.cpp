//===- ExecutableImage.cpp - Flat, precomputed execution form --------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ExecutableImage.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <map>

using namespace ocelot;

std::shared_ptr<const ExecutableImage>
ExecutableImage::build(const Program &P,
                       const std::vector<RegionInfo> *Regions,
                       const MonitorPlan *Plan) {
  auto Img = std::shared_ptr<ExecutableImage>(new ExecutableImage());

  // Pass 1: layout. Blocks are laid out in id order, so every PC is known
  // before any target is resolved. An empty block's PC coincides with the
  // next block's start (verified IR has no empty blocks).
  std::vector<std::vector<uint32_t>> BlockPc(
      static_cast<size_t>(P.numFunctions()));
  uint32_t Pc = 0;
  Img->Funcs.resize(static_cast<size_t>(P.numFunctions()));
  for (int F = 0; F < P.numFunctions(); ++F) {
    const Function *Fn = P.function(F);
    FuncLayout &L = Img->Funcs[static_cast<size_t>(F)];
    L.EntryPc = Pc;
    L.NumRegs = static_cast<uint32_t>(Fn->numRegs());
    BlockPc[static_cast<size_t>(F)].resize(
        static_cast<size_t>(Fn->numBlocks()));
    for (int B = 0; B < Fn->numBlocks(); ++B) {
      BlockPc[static_cast<size_t>(F)][static_cast<size_t>(B)] = Pc;
      Pc += static_cast<uint32_t>(Fn->block(B)->size());
    }
    L.EndPc = Pc;
  }

  // Input ordinals: every Input instruction first, in PC order, then any
  // use-check input site that is not an Input instruction (its bit is
  // never set; the ordinal only names it in violation details). Marker
  // ordinals: the distinct (set id, label) pairs, sorted.
  for (int F = 0; F < P.numFunctions(); ++F)
    for (int B = 0; B < P.function(F)->numBlocks(); ++B)
      for (const Instruction &I : P.function(F)->block(B)->instructions())
        if (I.Op == Opcode::Input) {
          Img->InputOrdinals.emplace(InstrRef(F, I.Label),
                                     static_cast<uint32_t>(
                                         Img->InputSites.size()));
          Img->InputSites.emplace_back(F, I.Label);
        } else if (I.Op == Opcode::Consistent) {
          Img->Markers.push_back(ConsistentMarker{I.SetId, I.Label});
        }
  std::sort(Img->Markers.begin(), Img->Markers.end());
  Img->Markers.erase(std::unique(Img->Markers.begin(), Img->Markers.end()),
                     Img->Markers.end());
  auto OrdinalOf = [&](InstrRef Site) {
    auto [It, New] = Img->InputOrdinals.emplace(
        Site, static_cast<uint32_t>(Img->InputSites.size()));
    if (New)
      Img->InputSites.push_back(Site);
    return It->second;
  };

  std::map<int, const RegionInfo *> RegionById;
  if (Regions)
    for (const RegionInfo &R : *Regions)
      RegionById[R.RegionId] = &R;

  // Pass 2: emit, resolving targets and flattening the side tables.
  Img->Code.reserve(Pc);
  for (int F = 0; F < P.numFunctions(); ++F) {
    const Function *Fn = P.function(F);
    for (int B = 0; B < Fn->numBlocks(); ++B) {
      for (const Instruction &I : Fn->block(B)->instructions()) {
        FlatInst FI;
        FI.Op = I.Op;
        FI.Label = I.Label;
        FI.Func = F;
        FI.Block = B;
        FI.Dst = I.Dst;
        FI.A = I.A;
        FI.B = I.B;
        FI.BinKind = I.BinKind;
        FI.UnKind = I.UnKind;
        FI.GlobalId = I.GlobalId;
        FI.SensorId = I.SensorId;
        FI.SetId = I.SetId;
        FI.RegionId = I.RegionId;
        FI.OutKind = I.OutKind;
        if (I.Op == Opcode::Input)
          FI.Ord = Img->InputOrdinals.at(InstrRef(F, I.Label));
        if (I.Op == Opcode::Consistent)
          FI.Ord = Img->markerOrdinal(I.SetId, I.Label);

        if (!I.Args.empty()) {
          FI.ArgsBegin = static_cast<uint32_t>(Img->ArgPool.size());
          FI.ArgsCount = static_cast<uint32_t>(I.Args.size());
          Img->ArgPool.insert(Img->ArgPool.end(), I.Args.begin(),
                              I.Args.end());
        }

        if (I.Op == Opcode::Call && I.Callee >= 0) {
          FI.Callee = I.Callee;
          FI.CalleeEntryPc = Img->Funcs[static_cast<size_t>(I.Callee)].EntryPc;
          FI.CalleeNumRegs = Img->Funcs[static_cast<size_t>(I.Callee)].NumRegs;
        }
        if (I.Op == Opcode::Br || I.Op == Opcode::CondBr) {
          assert(I.Target >= 0 && I.Target < Fn->numBlocks() &&
                 "unresolved branch target");
          FI.Target =
              BlockPc[static_cast<size_t>(F)][static_cast<size_t>(I.Target)];
        }
        if (I.Op == Opcode::CondBr) {
          assert(I.Target2 >= 0 && I.Target2 < Fn->numBlocks() &&
                 "unresolved branch target");
          FI.Target2 =
              BlockPc[static_cast<size_t>(F)][static_cast<size_t>(I.Target2)];
        }

        // Static-omega backup set, flattened next to the region start in
        // the ascending order RegionInfo::Omega (a std::set) yields — the
        // tree engine's iteration order, so undo-log sequences match.
        if (I.Op == Opcode::AtomicStart) {
          auto It = RegionById.find(I.RegionId);
          if (It != RegionById.end() && !It->second->Omega.empty()) {
            FI.OmegaBegin = static_cast<uint32_t>(Img->OmegaPool.size());
            FI.OmegaCount = static_cast<uint32_t>(It->second->Omega.size());
            for (int G : It->second->Omega)
              Img->OmegaPool.push_back(G);
          }
        }

        // Monitor side tables: what would otherwise be one or two map
        // lookups per executed instruction becomes a flag and a span.
        if (Plan) {
          InstrRef Site(F, I.Label);
          FI.MonitorBegin = static_cast<uint32_t>(Img->MonitorPool.size());
          auto UR = Plan->UseRegs.find(Site);
          if (UR != Plan->UseRegs.end()) {
            FI.UseRegsCount = static_cast<uint16_t>(UR->second.size());
            for (int Reg : UR->second)
              Img->MonitorPool.push_back(static_cast<uint32_t>(Reg));
          }
          auto UC = Plan->UseChecks.find(Site);
          if (UC != Plan->UseChecks.end()) {
            FI.HasUseCheck = true;
            Img->MonitorPool.push_back(
                static_cast<uint32_t>(UC->second.size()));
            for (const InstrRef &In : UC->second)
              Img->MonitorPool.push_back(OrdinalOf(In));
          }
        }

        Img->Code.push_back(FI);
      }
    }
  }
  assert(Img->Code.size() == Pc && "layout / emission length mismatch");

  // NVM layout: every global gets a base offset in one flat cell array.
  Img->Globals.resize(static_cast<size_t>(P.numGlobals()));
  uint32_t Cell = 0;
  for (int G = 0; G < P.numGlobals(); ++G) {
    GlobalSlot &S = Img->Globals[static_cast<size_t>(G)];
    S.Base = Cell;
    S.Size = static_cast<uint32_t>(P.global(G).Size);
    Cell += S.Size;
  }
  Img->NvmCellCount = Cell;

  if (P.mainFunction() >= 0) {
    Img->MainEntry = Img->Funcs[static_cast<size_t>(P.mainFunction())].EntryPc;
    Img->MainRegs = Img->Funcs[static_cast<size_t>(P.mainFunction())].NumRegs;
  }

  Img->Costs.reserve(Img->Code.size());
  for (const FlatInst &FI : Img->Code)
    Img->Costs.push_back(MachineCosts.costOfOp(FI.Op));
  // The watched step-cost tables, in stepCosts' block order.
  const size_t N = Img->Costs.size();
  Img->WatchedCosts.assign(4 * N, WatchedStep);
  for (size_t Pc = 0; Pc < N; ++Pc) {
    const FlatInst &FI = Img->Code[Pc];
    const uint64_t C = Img->Costs[Pc];
    if (!FI.HasUseCheck)
      Img->WatchedCosts[Pc] = C;
    if (!FI.UseRegsCount)
      Img->WatchedCosts[N + Pc] = C;
    if (!FI.HasUseCheck && !FI.UseRegsCount)
      Img->WatchedCosts[2 * N + Pc] = C;
  }
  Img->buildThreadedView();
  return Img;
}

uint32_t ExecutableImage::inputOrdinal(InstrRef Site) const {
  auto It = InputOrdinals.find(Site);
  return It == InputOrdinals.end() ? NoInputOrdinal : It->second;
}

uint32_t ExecutableImage::markerOrdinal(int SetId, uint32_t Label) const {
  const ConsistentMarker Key{SetId, Label};
  auto It = std::lower_bound(Markers.begin(), Markers.end(), Key);
  assert(It != Markers.end() && *It == Key && "not a Consistent marker");
  return static_cast<uint32_t>(It - Markers.begin());
}

// The one-to-one ThreadedOp block must mirror Opcode exactly: the fusion
// pass seeds the dispatch table with a plain static_cast of each opcode.
static_assert(static_cast<int>(ThreadedOp::Const) ==
              static_cast<int>(Opcode::Const));
static_assert(static_cast<int>(ThreadedOp::Bin) ==
              static_cast<int>(Opcode::Bin));
static_assert(static_cast<int>(ThreadedOp::CondBr) ==
              static_cast<int>(Opcode::CondBr));
static_assert(static_cast<int>(ThreadedOp::AtomicStart) ==
              static_cast<int>(Opcode::AtomicStart));
static_assert(static_cast<int>(ThreadedOp::Nop) ==
              static_cast<int>(Opcode::Nop));

namespace {

bool readsReg(const Operand &O, int32_t Reg) {
  return O.isReg() && O.Reg == Reg;
}

/// Matches an adjacent pair against the pattern table. Returns the head's
/// plain code when no row matches. A head must be a marker or write a
/// destination register; a forwarding row also requires its tail operand
/// to read that register. AtomicStart/AtomicEnd are in no row: fusion
/// cannot cross a region boundary.
ThreadedOp fusePattern(const FlatInst &H, const FlatInst &T) {
  const ThreadedOp Plain = static_cast<ThreadedOp>(H.Op);
  // Consistent and Fresh are taint-marker no-ops with no destination
  // register; they are the only fusable heads without one. The
  // `consistent(v); use v` idiom the checker emits makes their
  // neighbourhood hot even though the markers themselves do nothing.
  const bool Marker = H.Op == Opcode::Consistent || H.Op == Opcode::Fresh;
  if (!Marker && H.Dst < 0)
    return Plain;
  for (size_t I = 0; I < std::size(FusedPairTable); ++I) {
    const FusedPair &R = FusedPairTable[I];
    if (R.Head != H.Op || R.Tail != T.Op)
      continue;
    if ((R.Fwd == FuseFwd::A && !readsReg(T.A, H.Dst)) ||
        (R.Fwd == FuseFwd::B && !readsReg(T.B, H.Dst)))
      return Plain;
    return static_cast<ThreadedOp>(static_cast<size_t>(FirstFusedOp) + I);
  }
  return Plain;
}

} // namespace

const char *ocelot::threadedOpName(ThreadedOp Op) {
  if (Op < FirstFusedOp)
    return opcodeName(static_cast<Opcode>(Op));
  if (static_cast<size_t>(Op) >= NumThreadedOps)
    return "<invalid>";
  // Fused names are "head+tail", spelled from the table once.
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> N;
    for (const FusedPair &R : FusedPairTable)
      N.push_back(std::string(opcodeName(R.Head)) + "+" + opcodeName(R.Tail));
    return N;
  }();
  return Names[static_cast<size_t>(Op) - static_cast<size_t>(FirstFusedOp)]
      .c_str();
}

void ExecutableImage::buildThreadedView() {
  const size_t N = Code.size();

  // Leaders: block starts (covers function entries and branch targets,
  // since verified IR only branches to block heads) plus the resume point
  // after every Call. A leader must keep a plain dispatch code so any
  // control transfer onto it — branch, return, or power-failure resume —
  // executes exactly the unfused instruction.
  Leaders.assign(N, 0);
  for (size_t Pc = 0; Pc < N; ++Pc) {
    const FlatInst &FI = Code[Pc];
    if (Pc == 0 || FI.Func != Code[Pc - 1].Func ||
        FI.Block != Code[Pc - 1].Block)
      Leaders[Pc] = 1;
    if (FI.Op == Opcode::Br || FI.Op == Opcode::CondBr) {
      if (FI.Target < N)
        Leaders[FI.Target] = 1;
      if (FI.Op == Opcode::CondBr && FI.Target2 < N)
        Leaders[FI.Target2] = 1;
    }
    if (FI.Op == Opcode::Call && Pc + 1 < N)
      Leaders[Pc + 1] = 1;
  }

  // Seed with the one-to-one mapping.
  TOps.resize(N);
  for (size_t Pc = 0; Pc < N; ++Pc)
    TOps[Pc] = static_cast<ThreadedOp>(Code[Pc].Op);
  FusedPairs = 0;

  // Greedily fuse non-overlapping adjacent pairs. Tails keep their plain
  // code: a JIT reboot can leave the resume PC in the middle of a pair,
  // and dispatching the tail's plain code there is the unfused semantics.
  for (size_t Pc = 0; Pc + 1 < N; ++Pc) {
    if (Leaders[Pc + 1] || Code[Pc].Func != Code[Pc + 1].Func)
      continue;
    ThreadedOp Fused = fusePattern(Code[Pc], Code[Pc + 1]);
    if (Fused < FirstFusedOp)
      continue;
    TOps[Pc] = Fused;
    ++FusedPairs;
    ++Pc; // Non-overlapping: the tail cannot head another pair.
  }
}

namespace {

/// "%R", built by appending: GCC 12's inlined `"%" + std::to_string(R)`
/// trips a false -Wrestrict at -O3.
std::string regName(int32_t R) {
  std::string S = "%";
  S += std::to_string(R);
  return S;
}

/// Operand list "(a, b, c)" from a pool span.
std::string argList(const Operand *Args, uint32_t Count) {
  std::string Out = "(";
  for (uint32_t A = 0; A < Count; ++A) {
    if (A)
      Out += ", ";
    Out += Args[A].str();
  }
  return Out + ")";
}

} // namespace

std::string ExecutableImage::disassemble(const Program &P) const {
  std::string Out;
  Out += "; executable image: " + std::to_string(Code.size()) +
         " instruction(s), " + std::to_string(Funcs.size()) +
         " function(s), " + std::to_string(Globals.size()) +
         " global(s) in " + std::to_string(NvmCellCount) + " NVM cell(s), " +
         std::to_string(FusedPairs) + " fused pair(s)\n";
  for (int F = 0; F < numFunctions(); ++F) {
    const FuncLayout &L = func(F);
    Out += "\nfn " + P.function(F)->name() + " (f" + std::to_string(F) +
           ") entry=" + std::to_string(L.EntryPc) +
           " end=" + std::to_string(L.EndPc) +
           " regs=" + std::to_string(L.NumRegs) + "\n";
    int LastBlock = -1;
    for (uint32_t Pc = L.EntryPc; Pc < L.EndPc; ++Pc) {
      const FlatInst &FI = Code[Pc];
      if (FI.Block != LastBlock) {
        Out += "  b" + std::to_string(FI.Block) + ":\n";
        LastBlock = FI.Block;
      }
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "    %5u  ", Pc);
      Out += Buf;
      std::string Body = opcodeName(FI.Op);
      switch (FI.Op) {
      case Opcode::Const:
        Body += " " + regName(FI.Dst) + ", " + std::to_string(FI.A.Imm);
        break;
      case Opcode::Mov:
        Body += " " + regName(FI.Dst) + ", " + FI.A.str();
        break;
      case Opcode::Un:
        Body += " " + regName(FI.Dst) + ", " +
                std::string(unOpName(FI.UnKind)) + FI.A.str();
        break;
      case Opcode::Bin:
        Body += " " + regName(FI.Dst) + ", " + FI.A.str() + " " +
                binOpName(FI.BinKind) + " " + FI.B.str();
        break;
      case Opcode::LoadG:
        Body += " " + regName(FI.Dst) + ", @" + P.global(FI.GlobalId).Name +
                " [nvm+" + std::to_string(globalBase(FI.GlobalId)) + "]";
        break;
      case Opcode::StoreG:
        Body += " @" + P.global(FI.GlobalId).Name + " [nvm+" +
                std::to_string(globalBase(FI.GlobalId)) + "], " + FI.A.str();
        break;
      case Opcode::LoadA:
        Body += " " + regName(FI.Dst) + ", @" + P.global(FI.GlobalId).Name +
                "[" + FI.A.str() + "] [nvm+" +
                std::to_string(globalBase(FI.GlobalId)) + "+i]";
        break;
      case Opcode::StoreA:
        Body += " @" + P.global(FI.GlobalId).Name + "[" + FI.A.str() +
                "] [nvm+" + std::to_string(globalBase(FI.GlobalId)) +
                "+i], " + FI.B.str();
        break;
      case Opcode::LoadInd:
        Body += " " + regName(FI.Dst) + ", *" + FI.A.str();
        break;
      case Opcode::StoreInd:
        Body += " *" + FI.A.str() + ", " + FI.B.str();
        break;
      case Opcode::Input:
        Body += " " + regName(FI.Dst) + ", sensor " +
                P.sensor(FI.SensorId).Name;
        break;
      case Opcode::Call:
        Body += " " + P.function(FI.Callee)->name() + " -> pc " +
                std::to_string(FI.CalleeEntryPc) +
                argList(args(FI), FI.ArgsCount);
        if (FI.Dst >= 0)
          Body += " dst=" + regName(FI.Dst);
        break;
      case Opcode::Ret:
        if (!FI.A.isNone())
          Body += " " + FI.A.str();
        break;
      case Opcode::Br:
        Body += " -> pc " + std::to_string(FI.Target);
        break;
      case Opcode::CondBr:
        Body += " " + FI.A.str() + " ? pc " + std::to_string(FI.Target) +
                " : pc " + std::to_string(FI.Target2);
        break;
      case Opcode::Fresh:
        Body += " " + FI.A.str();
        break;
      case Opcode::Consistent:
        Body += " " + FI.A.str() + ", set " + std::to_string(FI.SetId);
        break;
      case Opcode::AtomicStart:
      case Opcode::AtomicEnd:
        Body += " region r" + std::to_string(FI.RegionId);
        break;
      case Opcode::Output:
        Body += " " + std::string(outputKindName(FI.OutKind)) +
                argList(args(FI), FI.ArgsCount);
        break;
      case Opcode::Nop:
        break;
      }
      if (Body.size() < 44)
        Body.resize(44, ' ');
      Out += Body + " ; cost=" + std::to_string(Costs[Pc]);
      // Which monitor sends this step through the full step header.
      const bool WatchBv = stepCosts(WatchUseChecks)[Pc] == WatchedStep;
      const bool WatchFormal = stepCosts(WatchUseRegs)[Pc] == WatchedStep;
      if (WatchBv || WatchFormal)
        Out += std::string(" watched=") +
               (WatchBv && WatchFormal ? "bit-vector+formal"
                : WatchBv              ? "bit-vector"
                                       : "formal");
      if (FI.Op == Opcode::AtomicStart && FI.OmegaCount) {
        Out += " omega={";
        const int32_t *Omega = omegaGlobals(FI);
        for (uint32_t G = 0; G < FI.OmegaCount; ++G) {
          if (G)
            Out += ", ";
          Out += P.global(Omega[G]).Name;
        }
        Out += "}";
      }
      if (FI.HasUseCheck)
        Out += " monitor=fresh-use";
      if (FI.UseRegsCount) {
        Out += " monitor-regs=[";
        const char *Sep = "";
        for (uint32_t Reg : useRegs(FI)) {
          Out += Sep + regName(static_cast<int32_t>(Reg));
          Sep = ", ";
        }
        Out += "]";
      }
      if (isFusedHead(Pc))
        Out += " fused=" + std::string(threadedOpName(TOps[Pc]));
      else if (Pc > 0 && isFusedHead(Pc - 1))
        Out += " fused-tail";
      Out += "\n";
    }
  }
  return Out;
}
