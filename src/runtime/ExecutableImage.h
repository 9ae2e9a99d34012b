//===- ExecutableImage.h - Flat, precomputed execution form -----*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `ExecutableImage` is an immutable, flat execution form of a compiled
/// program, built once per `CompiledArtifact` and shared read-only by every
/// `Simulation` that executes it. It exists purely for interpreter speed:
///
///  * All functions are linearized into one contiguous instruction array;
///    a program counter replaces the `{Func, Block, Idx}` triple, so fetch
///    is a single indexed load instead of three pointer hops.
///  * Branch, call and fall-through targets are pre-resolved to absolute
///    PCs at build time.
///  * The per-instruction cycle cost (`CostModel::costOf`'s switch) is
///    folded into a PC-indexed table.
///  * Dense side tables map each PC to its monitor actions (bit-vector
///    fresh-use checks, formal-checker use registers) and each
///    `AtomicStart` to its region's flattened omega set, replacing the
///    per-step `MonitorPlan` map lookups and `RegionInfo` linear scans.
///  * Every static input operation gets a dense *input ordinal*: its
///    position in the bit-vector monitor's bit vector.
///  * A global-variable layout table assigns every non-volatile global a
///    base offset in one flat NVM array.
///
/// The image is a *pure acceleration structure*: it adds no semantics. The
/// interpreter's retained tree-walking engine executes the original
/// `Program` directly, and differential tests pin the two engines to
/// bitwise-identical results (see tests/ExecImageTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_RUNTIME_EXECUTABLEIMAGE_H
#define OCELOT_RUNTIME_EXECUTABLEIMAGE_H

#include "analysis/WarAnalysis.h"
#include "ir/Program.h"
#include "runtime/CostModel.h"
#include "runtime/MonitorPlan.h"

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace ocelot {

/// One linearized instruction. A trimmed, fixed-size mirror of
/// `Instruction` with every target resolved to an absolute PC and the
/// variable-length payloads (call/output arguments, omega sets, monitored
/// registers) moved into shared pools indexed by [begin, begin+count)
/// spans. No strings, no vectors: stepping touches only this struct and
/// the pools, both contiguous.
struct FlatInst {
  Opcode Op = Opcode::Nop;
  bool HasUseCheck = false;  ///< Site is in MonitorPlan::UseChecks.
  uint16_t UseRegsCount = 0; ///< Formal-checker registers at this site.
  uint32_t Label = 0;        ///< Stable label (the paper's l in (f, l)).
  int32_t Func = -1;         ///< Enclosing function id (the paper's f).
  int32_t Block = -1;        ///< Source basic-block id (for disassembly).

  int32_t Dst = -1;
  Operand A, B;
  BinOp BinKind = BinOp::Add;
  UnOp UnKind = UnOp::Neg;

  int32_t GlobalId = -1;
  int32_t SensorId = -1;

  int32_t Callee = -1;         ///< Call target function id.
  uint32_t CalleeEntryPc = 0;  ///< Resolved entry PC of the callee.
  uint32_t CalleeNumRegs = 0;  ///< Callee register-file size.

  uint32_t Target = 0;  ///< Resolved PC: Br target / CondBr true target.
  uint32_t Target2 = 0; ///< Resolved PC: CondBr false target.

  int32_t SetId = -1;
  int32_t RegionId = -1;
  OutputKind OutKind = OutputKind::Log;

  uint32_t ArgsBegin = 0, ArgsCount = 0;   ///< Call/Output args span.
  uint32_t OmegaBegin = 0, OmegaCount = 0; ///< AtomicStart omega span.
  uint32_t MonitorBegin = 0; ///< This site's lists in the monitor pool.
  uint32_t InputOrd = 0;     ///< Input: its input ordinal (bit position).
};

// The bit-vector fields fit in what was padding; keep it that way.
static_assert(sizeof(FlatInst) <= 128, "FlatInst outgrew two cache lines");

/// The superinstruction pattern table, declared once: one row
/// `X(Head, Tail, Fwd)` per fused pair, naming the `Opcode`s of two
/// adjacent slots. `Fwd` names the tail operand that must read the head's
/// destination register (`A` or `B`), so the fused handler can forward
/// the head's result through a local; `Any` marks a dispatch-elision pair
/// with no dataflow condition, whose tail re-reads the (already updated)
/// register file. Everything that enumerates the pairs — the `Fuse*`
/// dispatch codes, the threaded engine's jump table, `threadedOpName`,
/// the fusion pass's matcher — is generated from this list, and each row
/// has one hand-written handler in InterpreterThreaded.cpp.
///
/// The rows were chosen from the dynamic opcode-pair histogram of the
/// benchmarks (`bench/micro_runtime --pairs`, `ocelotc --profile`); a
/// pair stays only while some benchmark image forms it.
#define OCELOT_FUSED_PAIRS(X)                                                  \
  X(Bin, CondBr, A)                                                            \
  X(Bin, StoreG, A)                                                            \
  X(Bin, StoreA, B)                                                            \
  X(LoadG, Bin, A)                                                             \
  X(LoadA, Bin, A)                                                             \
  X(Mov, Bin, A)                                                               \
  X(Bin, Mov, A)                                                               \
  X(Mov, Br, Any)                                                              \
  X(Bin, Bin, A)                                                               \
  X(Mov, LoadA, Any)                                                           \
  X(LoadA, LoadA, Any)                                                         \
  X(Mov, Consistent, Any)                                                      \
  X(Consistent, Bin, Any)                                                      \
  X(Input, Mov, A)                                                             \
  X(Mov, Input, Any)                                                           \
  X(Consistent, Input, Any)                                                    \
  X(Mov, Mov, Any)                                                             \
  X(Fresh, Consistent, Any)

/// Dispatch codes consumed by the threaded engine
/// (InterpreterThreaded.cpp). The first block mirrors `Opcode` one-to-one;
/// the rest are *superinstructions*, one per OCELOT_FUSED_PAIRS row: an
/// image-build-time peephole pass (the fusion pass) marks adjacent pairs
/// matching a row so the threaded engine executes both with a single
/// dispatch.
///
/// Fusion never rewrites the `FlatInst` array — costs, monitor flags and
/// omega spans stay per-PC and untouched. A fused pair is encoded purely
/// in this side table: the *head* slot gets a `Fuse*` code covering
/// [pc, pc+1], while the *tail* slot keeps its plain one-to-one code.
/// That tail code is load-bearing: a JIT reboot can resume execution in
/// the middle of a pair, and dispatching the tail's plain code there is
/// exactly the unfused semantics.
enum class ThreadedOp : uint8_t {
  // One-to-one with Opcode (same order; a FlatInst's opcode is its own
  // dispatch code when the slot is not a fused head).
  Const,
  Bin,
  Un,
  Mov,
  LoadG,
  StoreG,
  LoadA,
  StoreA,
  LoadInd,
  StoreInd,
  Input,
  Call,
  Ret,
  Br,
  CondBr,
  Fresh,
  Consistent,
  AtomicStart,
  AtomicEnd,
  Output,
  Nop,
  // Superinstructions (head slots only), in table order.
#define OCELOT_FUSED_CODE(Head, Tail, Fwd) Fuse##Head##Tail,
  OCELOT_FUSED_PAIRS(OCELOT_FUSED_CODE)
#undef OCELOT_FUSED_CODE
};

/// Which tail operand a pattern forwards the head's result into.
enum class FuseFwd : uint8_t { A, B, Any };

/// One OCELOT_FUSED_PAIRS row as data, for the fusion pass and tools.
struct FusedPair {
  Opcode Head;
  Opcode Tail;
  FuseFwd Fwd;
};

/// The pattern table; row I is dispatch code FirstFusedOp + I.
inline constexpr FusedPair FusedPairTable[] = {
#define OCELOT_FUSED_ROW(Head, Tail, Fwd)                                      \
  {Opcode::Head, Opcode::Tail, FuseFwd::Fwd},
    OCELOT_FUSED_PAIRS(OCELOT_FUSED_ROW)
#undef OCELOT_FUSED_ROW
};

/// Codes >= this are fused pair heads.
constexpr ThreadedOp FirstFusedOp =
    static_cast<ThreadedOp>(static_cast<size_t>(ThreadedOp::Nop) + 1);
/// Total number of ThreadedOp codes (jump-table size).
constexpr size_t NumThreadedOps =
    static_cast<size_t>(FirstFusedOp) + std::size(FusedPairTable);

/// The pattern table's row for fused code \p Op (>= FirstFusedOp).
constexpr const FusedPair &fusedPair(ThreadedOp Op) {
  return FusedPairTable[static_cast<size_t>(Op) -
                        static_cast<size_t>(FirstFusedOp)];
}

const char *threadedOpName(ThreadedOp Op);

/// Layout of one non-volatile global in the flat NVM array.
struct GlobalSlot {
  uint32_t Base = 0; ///< First cell index.
  uint32_t Size = 0; ///< Cell count (1 for scalars).
};

/// Per-function layout of the linearized code.
struct FuncLayout {
  uint32_t EntryPc = 0; ///< PC of the entry block's first instruction.
  uint32_t EndPc = 0;   ///< One past the function's last instruction.
  uint32_t NumRegs = 0; ///< Virtual register-file size.
};

class ExecutableImage {
public:
  /// Builds the image for \p P. \p Regions supplies the omega sets
  /// flattened next to each AtomicStart and \p Plan the monitor side
  /// tables; either may be null for programs without annotations.
  static std::shared_ptr<const ExecutableImage>
  build(const Program &P, const std::vector<RegionInfo> *Regions,
        const MonitorPlan *Plan);

  // -- Code --------------------------------------------------------------
  const std::vector<FlatInst> &code() const { return Code; }
  uint32_t size() const { return static_cast<uint32_t>(Code.size()); }
  const FuncLayout &func(int F) const {
    return Funcs[static_cast<size_t>(F)];
  }
  int numFunctions() const { return static_cast<int>(Funcs.size()); }
  uint32_t entryPc(int F) const { return func(F).EntryPc; }
  uint32_t mainEntryPc() const { return MainEntry; }
  uint32_t mainNumRegs() const { return MainRegs; }

  // -- Pools -------------------------------------------------------------
  const Operand *args(const FlatInst &I) const {
    return ArgPool.data() + I.ArgsBegin;
  }
  /// Globals of an AtomicStart's omega set, in ascending id order (the
  /// same order the tree engine reads out of RegionInfo::Omega).
  const int32_t *omegaGlobals(const FlatInst &I) const {
    return OmegaPool.data() + I.OmegaBegin;
  }
  /// Formal-checker registers at a fresh-use site, ascending (the same
  /// order as MonitorPlan::UseRegs' std::set).
  std::span<const uint32_t> useRegs(const FlatInst &I) const {
    return {MonitorPool.data() + I.MonitorBegin, I.UseRegsCount};
  }
  /// Input ordinals whose bits a fresh-use site checks (HasUseCheck), in
  /// the order of MonitorPlan::UseChecks' std::set (the first cleared one
  /// is reported).
  std::span<const uint32_t> useChecks(const FlatInst &I) const {
    const uint32_t *List =
        MonitorPool.data() + I.MonitorBegin + I.UseRegsCount;
    return {List + 1, List[0]};
  }

  // -- Input ordinals ----------------------------------------------------
  /// Input operations are numbered densely: every Input instruction in PC
  /// order, then any use-check input site of the monitor plan that is not
  /// an Input instruction of this program (its bit is never set).
  uint32_t numInputOrdinals() const {
    return static_cast<uint32_t>(InputSites.size());
  }
  InstrRef inputSite(uint32_t Ord) const { return InputSites[Ord]; }
  /// The ordinal of input site \p Site, or NoInputOrdinal.
  uint32_t inputOrdinal(InstrRef Site) const;
  static constexpr uint32_t NoInputOrdinal = ~0u;

  // -- NVM layout --------------------------------------------------------
  const std::vector<GlobalSlot> &globals() const { return Globals; }
  uint32_t globalBase(int G) const {
    return Globals[static_cast<size_t>(G)].Base;
  }
  uint32_t globalSize(int G) const {
    return Globals[static_cast<size_t>(G)].Size;
  }
  /// Total NVM cells across all globals.
  uint32_t nvmCells() const { return NvmCellCount; }

  // -- Costs -------------------------------------------------------------
  /// PC-indexed cycle costs under the default CostModel. Interpreters
  /// running a non-default model materialize their own table with
  /// costTableFor.
  const std::vector<uint64_t> &defaultCosts() const { return DefaultCosts; }
  std::vector<uint64_t> costTableFor(const CostModel &Costs) const;

  // -- Threaded dispatch view --------------------------------------------
  /// PC-indexed dispatch codes for the threaded engine. Non-fused slots
  /// (including every fused pair's tail) carry their FlatInst's opcode
  /// verbatim; fused heads carry a Fuse* code covering [pc, pc+1].
  const std::vector<ThreadedOp> &threadedOps() const { return TOps; }
  ThreadedOp threadedOpAt(uint32_t Pc) const {
    return TOps[static_cast<size_t>(Pc)];
  }
  /// True when \p Pc heads a fused pair.
  bool isFusedHead(uint32_t Pc) const {
    return TOps[static_cast<size_t>(Pc)] >= FirstFusedOp;
  }
  /// Number of fused pairs the peephole pass formed.
  uint32_t fusedPairCount() const { return FusedPairs; }
  /// True when \p Pc is a *leader*: a block start (function entries and
  /// branch targets included) or the resume point after a Call. Fusion
  /// never makes a leader a pair's tail, so every control transfer lands
  /// on a plain dispatch code. Exposed for the fusion-pass unit tests.
  bool isLeader(uint32_t Pc) const {
    return Leaders[static_cast<size_t>(Pc)] != 0;
  }

  /// Human-readable dump of the whole image: PC, opcode, resolved
  /// targets, cost, region/monitor annotations (ocelotc --disasm).
  /// \p P must be the program this image was built from (names only).
  std::string disassemble(const Program &P) const;

private:
  ExecutableImage() = default;

  /// Computes the leader set and runs the pair-fusion pass over the
  /// finished Code array, filling TOps/Leaders/FusedPairs.
  void buildThreadedView();

  std::vector<FlatInst> Code;
  std::vector<ThreadedOp> TOps;
  std::vector<uint8_t> Leaders;
  uint32_t FusedPairs = 0;
  std::vector<FuncLayout> Funcs;
  std::vector<Operand> ArgPool;
  std::vector<int32_t> OmegaPool;
  /// Per monitored site, from FlatInst::MonitorBegin: its UseRegsCount
  /// formal-checker registers, then (HasUseCheck) a length and that many
  /// use-check input ordinals.
  std::vector<uint32_t> MonitorPool;
  std::vector<InstrRef> InputSites;
  std::map<InstrRef, uint32_t> InputOrdinals;
  std::vector<GlobalSlot> Globals;
  std::vector<uint64_t> DefaultCosts;
  uint32_t NvmCellCount = 0;
  uint32_t MainEntry = 0;
  uint32_t MainRegs = 0;
};

} // namespace ocelot

#endif // OCELOT_RUNTIME_EXECUTABLEIMAGE_H
