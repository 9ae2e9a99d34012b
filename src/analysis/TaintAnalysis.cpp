//===- TaintAnalysis.cpp - Input-dependence analysis ---------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/TaintAnalysis.h"

#include "analysis/Dominators.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <iterator>
#include <queue>
#include <span>
#include <unordered_map>

using namespace ocelot;

/// The analysis's interned chains and hash-consed sets.
///
/// A chain is a cons cell: its first element and the id of the chain after
/// it, with chain 0 the empty chain, so prefixing a call site onto a chain
/// is one lookup. A set is a sorted sparse bitset: a run of 64-bit words,
/// ascending by word index, in a chunk that never moves. It is found again
/// by content through an open-addressing index over its hash, the sum of
/// its words' mixed bits; set 0 is the empty set. Unions and whole-set
/// prefixes are memoized by their operands' ids.
struct TaintAnalysis::Tables {
  /// Members Index * 64 + b for every set bit b of Bits.
  struct Word {
    uint64_t Bits = 0;
    uint32_t Index = 0;
  };
  struct Set {
    const Word *Data = nullptr;
    uint32_t Size = 0;
    uint64_t Hash = 0;
  };
  struct Cell {
    InstrRef Head;
    uint32_t Tail = 0;
  };
  struct CellKey {
    int Func;
    uint32_t Label;
    uint32_t Tail;
    bool operator==(const CellKey &) const = default;
  };
  struct CellKeyHash {
    size_t operator()(const CellKey &K) const {
      return static_cast<size_t>(
          mix(static_cast<uint64_t>(K.Label) << 32 | K.Tail) ^
          static_cast<uint32_t>(K.Func));
    }
  };
  /// Words per chunk, unless one set needs more.
  static constexpr size_t ChunkWords = 4096;

  std::vector<Set> Sets{Set{}};
  std::vector<std::unique_ptr<Word[]>> Chunks;
  Word *Free = nullptr; ///< Unused tail of the newest chunk.
  size_t FreeLeft = 0;
  std::vector<uint32_t> Slots = std::vector<uint32_t>(64, 0); // 0 = free
  std::unordered_map<uint64_t, uint32_t> Unions;

  std::vector<Cell> Cells{Cell{}};
  std::unordered_map<CellKey, uint32_t, CellKeyHash> CellIds;
  std::unordered_map<uint64_t, uint32_t> Prefixed;

  static uint64_t mix(uint64_t X) {
    X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
    X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
    return X ^ (X >> 31);
  }
  static uint64_t hashOf(Word W) { return mix(W.Bits ^ mix(W.Index)); }

  static uint64_t pairKey(uint32_t A, uint32_t B) {
    return static_cast<uint64_t>(A) << 32 | B;
  }
  /// The memo key of the union of \p A and \p B, in either order.
  static uint64_t unionKey(IdSet A, IdSet B) {
    return pairKey(std::min(A.Id, B.Id), std::max(A.Id, B.Id));
  }

  std::span<const Word> words(IdSet S) const {
    return {Sets[S.Id].Data, Sets[S.Id].Size};
  }

  std::vector<uint32_t> members(IdSet S) const {
    std::vector<uint32_t> Out;
    for (Word W : words(S))
      for (uint64_t X = W.Bits; X; X &= X - 1)
        Out.push_back(W.Index * 64 + static_cast<uint32_t>(std::countr_zero(X)));
    return Out;
  }

  /// Room for \p N words at the end of the newest chunk.
  Word *room(size_t N) {
    if (N > FreeLeft) {
      FreeLeft = std::max(N, ChunkWords);
      Chunks.push_back(std::make_unique_for_overwrite<Word[]>(FreeLeft));
      Free = Chunks.back().get();
    }
    return Free;
  }

  /// The set of the \p N words just written at room(N), whose hash is
  /// \p Hash: an existing set with those words, or a new one that keeps the
  /// room.
  IdSet commit(size_t N, uint64_t Hash) {
    if (N == 0)
      return {};
    std::span<const Word> Written(Free, N);
    auto Same = [](Word A, Word B) {
      return A.Index == B.Index && A.Bits == B.Bits;
    };
    size_t Mask = Slots.size() - 1;
    size_t Slot = Hash & Mask;
    for (; Slots[Slot]; Slot = (Slot + 1) & Mask) {
      uint32_t Id = Slots[Slot];
      if (Sets[Id].Hash == Hash &&
          std::ranges::equal(words({Id}), Written, Same))
        return {Id};
    }
    uint32_t Id = static_cast<uint32_t>(Sets.size());
    Sets.push_back({Free, static_cast<uint32_t>(N), Hash});
    Free += N;
    FreeLeft -= N;
    Slots[Slot] = Id;
    if (2 * Sets.size() > Slots.size())
      rehash();
    return {Id};
  }

  void rehash() {
    Slots.assign(2 * Slots.size(), 0);
    size_t Mask = Slots.size() - 1;
    for (uint32_t Id = 1; Id < Sets.size(); ++Id) {
      size_t Slot = Sets[Id].Hash & Mask;
      while (Slots[Slot])
        Slot = (Slot + 1) & Mask;
      Slots[Slot] = Id;
    }
  }

  /// The set of \p Sorted (ascending).
  IdSet intern(std::span<const uint32_t> Sorted) {
    Word *Out = room(Sorted.size());
    size_t N = 0;
    for (uint32_t X : Sorted) {
      uint64_t Bit = uint64_t(1) << (X % 64);
      if (N && Out[N - 1].Index == X / 64)
        Out[N - 1].Bits |= Bit;
      else
        Out[N++] = {Bit, X / 64};
    }
    uint64_t Hash = 0;
    for (size_t I = 0; I < N; ++I)
      Hash += hashOf(Out[I]);
    return commit(N, Hash);
  }

  IdSet singleton(uint32_t X) { return intern({&X, 1}); }

  /// \returns true if every member of \p B is in \p A.
  static bool includes(std::span<const Word> A, std::span<const Word> B) {
    size_t I = 0;
    for (Word W : B) {
      while (I < A.size() && A[I].Index < W.Index)
        ++I;
      if (I == A.size() || A[I].Index != W.Index || (W.Bits & ~A[I].Bits))
        return false;
    }
    return true;
  }

  /// The union of \p A and \p B. When one side already holds the other,
  /// that side comes back and nothing new is stored. A new union is also
  /// remembered as the union of itself with either operand, so joining a
  /// set with one it grew from is one lookup.
  IdSet unite(IdSet A, IdSet B) {
    if (A == B || B.empty())
      return A;
    if (A.empty())
      return B;
    uint64_t Key = unionKey(A, B);
    if (auto It = Unions.find(Key); It != Unions.end())
      return {It->second};
    std::span<const Word> WA = words(A), WB = words(B);
    IdSet U;
    if (includes(WA, WB)) {
      U = A;
    } else if (includes(WB, WA)) {
      U = B;
    } else {
      Word *Out = room(WA.size() + WB.size());
      size_t I = 0, J = 0, N = 0;
      while (I < WA.size() || J < WB.size()) {
        if (J == WB.size() || (I < WA.size() && WA[I].Index < WB[J].Index)) {
          Out[N++] = WA[I++];
        } else if (I == WA.size() || WB[J].Index < WA[I].Index) {
          Out[N++] = WB[J++];
        } else {
          Out[N++] = {WA[I].Bits | WB[J].Bits, WA[I].Index};
          ++I;
          ++J;
        }
      }
      uint64_t Hash = 0;
      for (size_t K = 0; K < N; ++K)
        Hash += hashOf(Out[K]);
      U = commit(N, Hash);
      Unions.emplace(unionKey(A, U), U.Id);
      Unions.emplace(unionKey(B, U), U.Id);
    }
    Unions.emplace(Key, U.Id);
    return U;
  }

  /// The chain \p Head followed by chain \p Tail.
  uint32_t cons(InstrRef Head, uint32_t Tail) {
    auto [It, New] = CellIds.try_emplace(CellKey{Head.Func, Head.Label, Tail},
                                         static_cast<uint32_t>(Cells.size()));
    if (New)
      Cells.push_back({Head, Tail});
    return It->second;
  }

  /// Every chain of \p Chains prefixed with call site \p Site.
  IdSet prefix(InstrRef Site, IdSet Chains) {
    if (Chains.empty())
      return {};
    uint64_t Key = pairKey(cons(Site, 0), Chains.Id);
    if (auto It = Prefixed.find(Key); It != Prefixed.end())
      return {It->second};
    std::vector<uint32_t> Out = members(Chains);
    for (uint32_t &C : Out)
      C = cons(Site, C);
    std::ranges::sort(Out);
    IdSet S = intern(Out);
    Prefixed.emplace(Key, S.Id);
    return S;
  }

  ProvChain chain(uint32_t Id) const {
    ProvChain C;
    for (; Id; Id = Cells[Id].Tail)
      C.push_back(Cells[Id].Head);
    return C;
  }
};

namespace {

/// A block's out-state: only the registers that are live out of the block
/// and carry taint, sorted by register id.
using SparseRegs = std::vector<std::pair<int, TokenSet>>;

const TokenSet NoTokens;

/// Calls \p Fn with the index of every set bit of the \p N words at \p Row,
/// ascending. A word is read when it is reached, so bits \p Fn sets in
/// later words are seen.
template <typename Fn>
void forEachBit(const uint64_t *Row, size_t N, Fn &&F) {
  for (size_t W = 0; W < N; ++W)
    for (uint64_t X = Row[W]; X; X &= X - 1)
      F(W * 64 + static_cast<size_t>(std::countr_zero(X)));
}

/// A dense bit matrix, stored row by row.
class BitRows {
public:
  BitRows(size_t Rows, size_t Cols)
      : Words((Cols + 63) / 64), Bits(std::max<size_t>(1, Rows * Words)) {}

  size_t words() const { return Words; }
  uint64_t *row(size_t R) { return Bits.data() + R * Words; }
  const uint64_t *row(size_t R) const { return Bits.data() + R * Words; }

  void set(size_t R, size_t C) { row(R)[C / 64] |= uint64_t(1) << (C % 64); }

  /// Row \p R |= row \p From; \returns true if row \p R grew.
  bool orRow(size_t R, size_t From) {
    uint64_t *D = row(R);
    const uint64_t *S = row(From);
    uint64_t Grew = 0;
    for (size_t W = 0; W < Words; ++W) {
      Grew |= S[W] & ~D[W];
      D[W] |= S[W];
    }
    return Grew != 0;
  }

  /// Calls \p Fn with every set column of row \p R, ascending.
  template <typename Fn> void forEach(size_t R, Fn &&F) const {
    forEachBit(row(R), Words, F);
  }

private:
  size_t Words;
  std::vector<uint64_t> Bits;
};

/// Registers live into each block: read on some path before being
/// redefined, counting every register operand as a read. Only a register
/// read before its definition in some block can be live across a block
/// boundary, so the rows range over those registers alone.
struct LiveSets {
  std::vector<int> Regs; ///< Column -> register, ascending.
  BitRows In;

  /// Sets \p Row to the columns live out of a block with successors
  /// \p Succs.
  void liveOut(const std::vector<int> &Succs,
               std::vector<uint64_t> &Row) const {
    std::fill(Row.begin(), Row.end(), 0);
    for (int S : Succs)
      for (size_t W = 0; W < Row.size(); ++W)
        Row[W] |= In.row(S)[W];
  }
};

/// \p Order lists every block (reverse postorder first, so it is walked
/// backwards); one such walk settles the sets unless \p Cyclic.
LiveSets liveness(const Function &F, const std::vector<int> &Order,
                  const std::vector<std::vector<int>> &Succs, bool Cyclic) {
  int NumBlocks = F.numBlocks();
  // Block B's upward-exposed reads are Use[UseEnd[B-1] .. UseEnd[B]), and
  // likewise its definitions in Def.
  std::vector<int> Use, Def;
  std::vector<size_t> UseEnd(NumBlocks), DefEnd(NumBlocks);
  std::vector<int> UseStamp(F.numRegs(), -1), DefStamp(F.numRegs(), -1);
  std::vector<char> Exposed(F.numRegs(), 0);
  for (int B = 0; B < NumBlocks; ++B) {
    auto Read = [&](const Operand &O) {
      if (O.isReg() && DefStamp[O.Reg] != B && UseStamp[O.Reg] != B) {
        UseStamp[O.Reg] = B;
        Use.push_back(O.Reg);
        Exposed[O.Reg] = 1;
      }
    };
    for (const Instruction &I : F.block(B)->instructions()) {
      Read(I.A);
      Read(I.B);
      for (const Operand &A : I.Args)
        Read(A);
      if (I.Dst >= 0 && DefStamp[I.Dst] != B) {
        DefStamp[I.Dst] = B;
        Def.push_back(I.Dst);
      }
    }
    UseEnd[B] = Use.size();
    DefEnd[B] = Def.size();
  }
  LiveSets Live{{}, BitRows(0, 0)};
  std::vector<int> Col(F.numRegs(), -1);
  for (int R = 0; R < F.numRegs(); ++R)
    if (Exposed[R]) {
      Col[R] = static_cast<int>(Live.Regs.size());
      Live.Regs.push_back(R);
    }

  Live.In = BitRows(NumBlocks, Live.Regs.size());
  std::vector<uint64_t> Row(Live.In.words());
  bool Changed;
  do {
    Changed = false;
    for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
      int B = *It;
      Live.liveOut(Succs[B], Row);
      for (size_t I = B ? DefEnd[B - 1] : 0; I < DefEnd[B]; ++I)
        if (int C = Col[Def[I]]; C >= 0)
          Row[C / 64] &= ~(uint64_t(1) << (C % 64));
      for (size_t I = B ? UseEnd[B - 1] : 0; I < UseEnd[B]; ++I)
        Row[Col[Use[I]] / 64] |= uint64_t(1) << (Col[Use[I]] % 64);
      if (!std::equal(Row.begin(), Row.end(), Live.In.row(B))) {
        std::copy(Row.begin(), Row.end(), Live.In.row(B));
        Changed = true;
      }
    }
  } while (Changed && Cyclic);
  return Live;
}

} // namespace

TaintAnalysis::TaintAnalysis(const Program &P, const CallGraph &CG)
    : P(P), CG(CG), Tab(std::make_unique<Tables>()) {
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

TaintAnalysis::TaintAnalysis(TaintAnalysis &&) noexcept = default;
TaintAnalysis::~TaintAnalysis() = default;

std::vector<uint32_t> TaintAnalysis::members(IdSet S) const {
  return Tab->members(S);
}

bool TaintAnalysis::merge(TokenSet &Into, const TokenSet &From) {
  TokenSet Old = Into;
  Into.Params = Tab->unite(Into.Params, From.Params);
  Into.RefContents = Tab->unite(Into.RefContents, From.RefContents);
  Into.Locals = Tab->unite(Into.Locals, From.Locals);
  Into.Globals = Tab->unite(Into.Globals, From.Globals);
  return !(Into == Old);
}

TokenSet TaintAnalysis::translateCalleeTokens(
    const Instruction &Call, const TokenSet &CalleeTokens,
    const std::vector<TokenSet> &ArgTokens, int CallerFunc) {
  TokenSet Out;
  for (uint32_t I : members(CalleeTokens.Params))
    if (I < ArgTokens.size())
      merge(Out, ArgTokens[I]);
  std::vector<uint32_t> RefTargets;
  for (uint32_t I : members(CalleeTokens.RefContents)) {
    assert(I < Call.ArgRefGlobal.size() && Call.ArgRefGlobal[I] >= 0 &&
           "ref content token for non-ref argument");
    RefTargets.push_back(static_cast<uint32_t>(Call.ArgRefGlobal[I]));
  }
  std::ranges::sort(RefTargets);
  RefTargets.erase(std::unique(RefTargets.begin(), RefTargets.end()),
                   RefTargets.end());
  Out.Globals = Tab->unite(Out.Globals, Tab->intern(RefTargets));
  Out.Locals = Tab->unite(
      Out.Locals,
      Tab->prefix(InstrRef(CallerFunc, Call.Label), CalleeTokens.Locals));
  Out.Globals = Tab->unite(Out.Globals, CalleeTokens.Globals);
  return Out;
}

void TaintAnalysis::analyzeFunction(int Func) {
  const Function &F = *P.function(Func);
  FunctionTaint &Res = FT[Func];
  int NumBlocks = F.numBlocks();
  int NumRegs = F.numRegs();
  std::vector<int> Order = reversePostOrder(F);
  std::vector<int> Position(NumBlocks);
  for (int I = 0; I < NumBlocks; ++I)
    Position[Order[I]] = I;
  std::vector<std::vector<int>> Succs(NumBlocks), Preds(NumBlocks);
  bool Cyclic = false; // Some edge runs back in Order.
  for (int B = 0; B < NumBlocks; ++B) {
    Succs[B] = F.block(B)->successors();
    for (int S : Succs[B]) {
      Preds[S].push_back(B);
      Cyclic |= Position[S] <= Position[B];
    }
  }

  // Control dependence (transitive) via the post-dominator tree: one row
  // per block, one column per conditional-branch block.
  DominatorTree PDT = DominatorTree::computePostDominators(F);
  std::vector<int> Branches, BranchCol(NumBlocks, -1);
  for (int C = 0; C < NumBlocks; ++C) {
    const BasicBlock *BB = F.block(C);
    if (BB->hasTerminator() && BB->terminator().Op == Opcode::CondBr) {
      BranchCol[C] = static_cast<int>(Branches.size());
      Branches.push_back(C);
    }
  }
  BitRows CtrlDeps(NumBlocks, Branches.size());
  for (size_t Col = 0; Col < Branches.size(); ++Col) {
    int C = Branches[Col];
    for (int S : Succs[C]) {
      int Runner = S;
      while (Runner >= 0 && Runner != PDT.idom(C)) {
        if (Runner != C)
          CtrlDeps.set(Runner, Col);
        Runner = PDT.idom(Runner);
      }
    }
  }
  // Transitive closure (nesting where the inner condition is defined
  // outside the outer branch still inherits the outer control taint). A
  // branch precedes its dependents in reverse postorder, so one pass closes
  // an acyclic CFG; hand-built IR with loops takes more.
  bool Grown;
  do {
    Grown = false;
    for (int B : Order)
      CtrlDeps.forEach(B, [&](size_t Col) {
        Grown |= CtrlDeps.orRow(B, Branches[Col]);
      });
  } while (Grown && Cyclic);

  // Who reads what: blocks control-dependent on each branch block, and
  // blocks that load through each reference parameter.
  std::vector<std::vector<int>> CtrlDependents(Branches.size());
  for (int B = 0; B < NumBlocks; ++B)
    CtrlDeps.forEach(B, [&](size_t Col) { CtrlDependents[Col].push_back(B); });
  std::vector<std::vector<int>> RefReaders(F.numParams());
  for (int B = 0; B < NumBlocks; ++B)
    for (const Instruction &I : F.block(B)->instructions())
      if (I.Op == Opcode::LoadInd && I.A.isReg() &&
          (RefReaders[I.A.Reg].empty() || RefReaders[I.A.Reg].back() != B))
        RefReaders[I.A.Reg].push_back(B);

  std::vector<SparseRegs> BlockOut(NumBlocks);
  // Taint of each branch's condition, by branch column.
  std::vector<TokenSet> CondTaint(Branches.size());
  // Flow-insensitive: everything stored through a reference parameter
  // anywhere in the function is visible to every load through it.
  std::vector<TokenSet> RefLocalWritten(F.numParams());

  // Worklist of blocks keyed by reverse-postorder position, so a block is
  // visited after its forward predecessors. Every block (unreachable ones
  // included) is visited once; afterwards a block is re-queued only when
  // something it reads grows: a predecessor's out-state, the condition
  // taint of a branch it is control-dependent on, or the stores through a
  // reference parameter it loads from.
  LiveSets Live = liveness(F, Order, Succs, Cyclic);
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
  auto Merged = [&](TokenSet T, const TokenSet &U) {
    merge(T, U);
    return T;
  };
  // Joins the live registers of the entry state into BlockOut[B], skipping
  // empty ones. \returns true if it grew.
  SparseRegs Joined;
  std::vector<uint64_t> LiveOut(Live.In.words());
  auto JoinOut = [&](int B) {
    SparseRegs &Out = BlockOut[B];
    bool Grew = false;
    Joined.clear();
    size_t OI = 0;
    Live.liveOut(Succs[B], LiveOut);
    forEachBit(LiveOut.data(), LiveOut.size(), [&](size_t Col) {
      int R = Live.Regs[Col];
      const TokenSet &T = Regs[static_cast<size_t>(R)];
      if (T.empty())
        return;
      while (OI < Out.size() && Out[OI].first < R)
        Joined.push_back(Out[OI++]);
      if (OI < Out.size() && Out[OI].first == R) {
        Grew |= merge(Out[OI].second, T);
        Joined.push_back(Out[OI++]);
      } else {
        Joined.emplace_back(R, T);
        Grew = true;
      }
    });
    Joined.insert(Joined.end(), Out.begin() + static_cast<ptrdiff_t>(OI),
                  Out.end());
    Out.swap(Joined);
    return Grew;
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
          Touch(I).Params = Tab->singleton(static_cast<uint32_t>(I));
    }
    for (int Pr : Preds[B])
      for (const auto &[R, T] : BlockOut[Pr])
        merge(Touch(R), T);

    // Control taint for definitions in this block.
    TokenSet Ctrl;
    CtrlDeps.forEach(B, [&](size_t Col) { merge(Ctrl, CondTaint[Col]); });

    auto Define = [&](int Dst, TokenSet T) {
      if (Dst < 0)
        return;
      merge(T, Ctrl);
      TokenSet &D = Touch(Dst);
      D = T;
      merge(Res.RegTaint[static_cast<size_t>(Dst)], D);
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
      case Opcode::Bin:
        Define(I.Dst, Merged(TokensOf(I.A), TokensOf(I.B)));
        break;
      case Opcode::LoadG: {
        TokenSet T;
        T.Globals = Tab->singleton(static_cast<uint32_t>(I.GlobalId));
        Define(I.Dst, T);
        break;
      }
      case Opcode::StoreG:
        merge(Res.GlobalWrites[I.GlobalId], Merged(TokensOf(I.A), Ctrl));
        break;
      case Opcode::LoadA: {
        TokenSet T = TokensOf(I.A); // index selects the element
        T.Globals = Tab->unite(
            T.Globals, Tab->singleton(static_cast<uint32_t>(I.GlobalId)));
        Define(I.Dst, T);
        break;
      }
      case Opcode::StoreA: {
        TokenSet T = Merged(TokensOf(I.B), TokensOf(I.A));
        merge(Res.GlobalWrites[I.GlobalId], Merged(T, Ctrl));
        break;
      }
      case Opcode::LoadInd: {
        assert(I.A.isReg() && I.A.Reg < F.numParams() &&
               F.paramIsRef(I.A.Reg) && "deref of a non-reference");
        TokenSet T = RefLocalWritten[static_cast<size_t>(I.A.Reg)];
        T.RefContents = Tab->unite(
            T.RefContents, Tab->singleton(static_cast<uint32_t>(I.A.Reg)));
        Define(I.Dst, T);
        break;
      }
      case Opcode::StoreInd: {
        assert(I.A.isReg() && I.A.Reg < F.numParams() &&
               F.paramIsRef(I.A.Reg) && "store through a non-reference");
        TokenSet T = Merged(TokensOf(I.B), Ctrl);
        merge(Res.RefOut[I.A.Reg], T);
        if (merge(RefLocalWritten[static_cast<size_t>(I.A.Reg)], T))
          Enqueue(RefReaders[static_cast<size_t>(I.A.Reg)]);
        break;
      }
      case Opcode::Input: {
        TokenSet T;
        T.Locals = Tab->singleton(Tab->cons(InstrRef(Func, I.Label), 0));
        Define(I.Dst, T);
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
          merge(Recorded[AI], ArgTokens[AI]);

        Define(I.Dst, translateCalleeTokens(I, Callee.Ret, ArgTokens, Func));
        // Callee stores through our ref arguments hit known globals.
        for (const auto &[ParamIdx, T] : Callee.RefOut) {
          int Target = I.ArgRefGlobal[static_cast<size_t>(ParamIdx)];
          assert(Target >= 0 && "RefOut for a non-ref argument");
          merge(Res.GlobalWrites[Target],
                Merged(translateCalleeTokens(I, T, ArgTokens, Func), Ctrl));
        }
        for (const auto &[G, T] : Callee.GlobalWrites)
          merge(Res.GlobalWrites[G],
                Merged(translateCalleeTokens(I, T, ArgTokens, Func), Ctrl));
        break;
      }
      case Opcode::Ret:
        if (I.A.isReg())
          merge(Res.Ret, Merged(TokensOf(I.A), Ctrl));
        break;
      case Opcode::CondBr:
        if (merge(CondTaint[BranchCol[B]], TokensOf(I.A)))
          Enqueue(CtrlDependents[BranchCol[B]]);
        break;
      case Opcode::Fresh:
      case Opcode::Consistent:
        merge(Res.AnnotTaint[I.Label], TokensOf(I.A));
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
    if (JoinOut(B))
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

namespace {

void sortUnique(std::vector<ProvChain> &Chains) {
  std::sort(Chains.begin(), Chains.end());
  Chains.erase(std::unique(Chains.begin(), Chains.end()), Chains.end());
}

} // namespace

void TaintAnalysis::computeGlobalContent() {
  std::vector<ProvChain> Joined;
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (int F = 0; F < P.numFunctions(); ++F) {
      for (const auto &[G, T] : FT[F].GlobalWrites) {
        std::vector<ProvChain> Abs = resolveAbsolute(F, T);
        std::vector<ProvChain> &Content = GlobalContent[G];
        Joined.clear();
        std::set_union(Content.begin(), Content.end(), Abs.begin(), Abs.end(),
                       std::back_inserter(Joined));
        if (Joined.size() != Content.size()) {
          Content.swap(Joined);
          Changed = true;
        }
      }
    }
  }
}

std::vector<ProvChain> TaintAnalysis::resolveRelative(const TokenSet &T) const {
  std::vector<ProvChain> Out;
  for (uint32_t C : members(T.Locals))
    Out.push_back(Tab->chain(C));
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::vector<ProvChain>
TaintAnalysis::resolveAbsolute(int Func, const TokenSet &T) const {
  std::set<std::pair<int, int>> Guard;
  std::vector<ProvChain> Out;
  resolveAbsoluteInto(Func, T, Out, Guard);
  sortUnique(Out);
  return Out;
}

void TaintAnalysis::resolveAbsoluteInto(
    int Func, const TokenSet &T, std::vector<ProvChain> &Out,
    std::set<std::pair<int, int>> &Guard) const {
  for (uint32_t C : members(T.Locals)) {
    ProvChain Local = Tab->chain(C);
    for (const ProvChain &Pi : Contexts[Func]) {
      ProvChain Abs;
      Abs.reserve(Pi.size() + Local.size());
      Abs.insert(Abs.end(), Pi.begin(), Pi.end());
      Abs.insert(Abs.end(), Local.begin(), Local.end());
      Out.push_back(std::move(Abs));
    }
  }
  for (uint32_t G : members(T.Globals))
    Out.insert(Out.end(), GlobalContent[G].begin(), GlobalContent[G].end());
  for (uint32_t ParamIdx : members(T.Params)) {
    if (!Guard.insert({Func, static_cast<int>(ParamIdx)}).second)
      continue;
    for (const CallSite &S : CG.callersOf(Func)) {
      auto It = FT[S.Caller].CallArgTaint.find(S.Label);
      if (It == FT[S.Caller].CallArgTaint.end())
        continue;
      if (ParamIdx >= It->second.size())
        continue;
      resolveAbsoluteInto(S.Caller, It->second[ParamIdx], Out, Guard);
    }
  }
  for (uint32_t ParamIdx : members(T.RefContents)) {
    for (const CallSite &S : CG.callersOf(Func)) {
      const Function *Caller = P.function(S.Caller);
      const Instruction *CallInst = Caller->instrAt(Caller->findLabel(S.Label));
      assert(CallInst && "call site must exist");
      int Target = CallInst->ArgRefGlobal[ParamIdx];
      assert(Target >= 0 && "ref content for non-ref argument");
      Out.insert(Out.end(), GlobalContent[Target].begin(),
                 GlobalContent[Target].end());
    }
  }
}
