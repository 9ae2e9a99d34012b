//===- InterpreterThreaded.cpp - Computed-goto dispatch with superinstructions ---===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The threaded dispatch engine, the production loop every run executes
/// on: computed-goto direct-threaded dispatch (with a portable switch
/// fallback when the compiler lacks the labels-as-values extension) over
/// the artifact's `ExecutableImage` — one contiguous instruction array,
/// pre-resolved branch/call targets, a folded cost table, dense
/// monitor/region side tables, and the ThreadedOp view in which the
/// build-time peephole pass fused hot adjacent opcode pairs into
/// superinstructions (ExecutableImage::buildThreadedView). Frames shrink
/// to {ReturnPc, RegBase} over one shared register stack.
///
/// Every rule here must mirror the tree engine (Interpreter.cpp) exactly
/// — same cost charging, same RNG draw sequence, same monitor callbacks,
/// same trap strings — so the two engines stay bitwise-identical on every
/// benchmark x model x plan x seed cell, in every instantiation below
/// (pinned by ExecImageTest and DifferentialFuzzTest). Three properties
/// carry that guarantee through fusion:
///
///  * A fused handler runs the step header for *both* slots — only the
///    dispatch between them is elided — so a power failure can still
///    strike between head and tail. When the tail's step needs the full
///    header (see below), it leaves the pair and runs as a plain step.
///  * A pair's tail keeps its plain dispatch code. A JIT reboot resumes
///    at the interrupted PC, which may be mid-pair; dispatching the
///    tail's plain code there is exactly the unfused semantics.
///  * Fusion never spans a leader (block start or post-call resume
///    point), so every branch, return and region re-entry lands on a
///    plain code.
///
/// The loop has three instantiations:
///
///  * Hot (taint off) assumes no failure plan, no energy model, no
///    monitors and no observers — the steady-state throughput
///    configuration — and drops the checks they would need.
///  * Checked (taint off) adds failure injection, the energy comparator,
///    the bit-vector monitor and the observers. Values move as raw int64
///    payloads: with taint off every span is empty by construction.
///    Its step header is one compare (the budget check aside): the step's
///    entry in the image's step-cost table against the comparator
///    headroom. The table holds a sentinel at every *watched* PC — a
///    monitor site, or every PC under a failure plan or the profiler —
///    so a step leaves the fast header only when energy runs low or its
///    PC is watched. It then runs the one full reference header, the
///    slow step, and dispatches from there.
///  * TaintOn (the formal monitor and the oracle force it) moves whole
///    `RtValue`s, joins their epoch spans, runs the formal
///    checks, and dispatches every slot's plain code: a fused head is
///    never taken, which is exact because each pair's tail keeps its
///    plain code too. It shares the checked loop's step header.
///
/// PC, the on-cycle and step counters and (non-Hot) the comparator
/// headroom live in locals for the whole run; tau and the lifetime
/// counter are derived from offsets against the on-cycle counter. The
/// sync invariant: SyncOut writes all of them back (the energy level as
/// ReserveCycles + headroom) before any out-of-line call that reads or
/// writes them, and SyncIn re-reads them after any that may have changed
/// them (power failure, region entry).
///
/// A computed goto leaves a handler's scope without running destructors,
/// so no handler may hold a local that owns memory: Output, the one
/// handler that builds a vector, calls the out-of-line outputFlat.
///
//===----------------------------------------------------------------------===//

#include "runtime/Interpreter.h"
#include "runtime/IntegerOps.h"

#include "telemetry/Profile.h"
#include "telemetry/TraceSink.h"

#include <cassert>

using namespace ocelot;

RtValue Interpreter::evalFlat(Operand O) const {
  if (O.isImm())
    return RtValue(O.Imm);
  if (O.isReg())
    return RegStack[FFrames.back().RegBase + static_cast<size_t>(O.Reg)];
  return evalKindless();
}

void Interpreter::onInputFlat(const FlatInst &FI, uint64_t Tau) {
  // Frame K+1 was created by the call instruction at
  // FFrames[K+1].ReturnPc - 1, whose Func field is the caller: chain
  // element K, mirroring the tree engine's
  // (Frames[K].Func, Frames[K+1].CallSiteLabel) pairs.
  const FlatInst *Code = Img->code().data();
  Monitor->onInput(
      FI.Ord, InstrRef(FI.Func, FI.Label), FFrames.size(),
      [&](size_t K) {
        const FlatInst &CallI = Code[FFrames[K + 1].ReturnPc - 1];
        return InstrRef(CallI.Func, CallI.Label);
      },
      Tau);
}

void Interpreter::outputFlat(const FlatInst &FI) {
  const Operand *Args = Img->args(FI);
  if (!Cfg.RecordTrace && !Cfg.Oracle) {
    // Args are still evaluated (kind-less operands must convert to the
    // same trap), but the event is never materialized.
    for (uint32_t A = 0; A < FI.ArgsCount; ++A)
      (void)evalFlat(Args[A]);
    return;
  }
  OutputEvent E;
  E.Kind = FI.OutKind;
  E.Tau = Tau;
  E.Args.reserve(FI.ArgsCount);
  // The oracle turns taint on, so the spans read here are live.
  EpochSpan Fused;
  for (uint32_t A = 0; A < FI.ArgsCount; ++A) {
    const RtValue V = evalFlat(Args[A]);
    E.Args.push_back(V.V);
    Fused = Fused.join(V.Taint);
  }
  if (Cfg.Oracle)
    recordOracleOutput(E.Kind, Fused);
  if (Cfg.RecordTrace) {
    if (ExecMode == Mode::Atomic)
      PendingOutputs.push_back(std::move(E));
    else
      Committed.Outputs.push_back(std::move(E));
  }
}

void Interpreter::enterAtomicFlat(const FlatInst &I, RunResult &R) {
  if (ExecMode == Mode::Atomic) {
    ++Natom; // Atom-Start-Inner: flattening counter only.
    return;
  }
  // Atom-Start-Outer: snapshot volatile state positioned after the start
  // (Pc has already advanced past the AtomicStart, like the tree engine's
  // Idx). Saving the volatile context costs like a JIT checkpoint (§6.3).
  uint64_t SaveCost = MachineCosts.RegionEntryPerFrame * FFrames.size();
  R.OnCycles += SaveCost;
  Tau += SaveCost;
  if (Energy)
    Energy->consume(SaveCost);
  ExecMode = Mode::Atomic;
  CurrentRegion = I.RegionId;
  Natom = 0;
  AbortsThisRegion = 0;
  FlatAtomicSnapshot.Frames = FFrames;
  FlatAtomicSnapshot.Regs = RegStack;
  FlatAtomicSnapshot.Pc = Pc;
  Undo.clear();
  if (Cfg.StaticOmega && I.OmegaCount) {
    // The omega set was flattened next to the region start at image build
    // time, in the same ascending order the tree engine reads out of
    // RegionInfo::Omega — identical undo-log entry sequence.
    const int32_t *Omega = Img->omegaGlobals(I);
    for (uint32_t OI = 0; OI < I.OmegaCount; ++OI) {
      int G = Omega[OI];
      uint32_t Size = Img->globalSize(G);
      for (uint32_t Idx = 0; Idx < Size; ++Idx) {
        if (Undo.logIfFirst(G, static_cast<int64_t>(Idx), nvmCell(G, Idx))) {
          ++R.UndoLogEntries;
          R.OnCycles += MachineCosts.AtomicOmegaPerCell;
          Tau += MachineCosts.AtomicOmegaPerCell;
        }
      }
    }
  }
  if (TraceSink *T = Cfg.Telemetry)
    T->regionEnter(Tau, CurrentRegion);
}

void Interpreter::powerFailFlat(RunResult &R) {
  // The register stack holds exactly every live frame's register file, so
  // its size equals the tree engine's per-frame sum.
  uint64_t TotalRegs = RegStack.size();
  rebootCommon(R, TotalRegs);

  if (ExecMode == Mode::Atomic) {
    // Atom-Reboot: apply the undo log, restore the region-entry context.
    Undo.restore([&](int G, int64_t Index, const RtValue &Old) {
      nvmCell(G, Index) = Old;
    });
    // In static mode the log *is* the region's backup and is retained for
    // the next attempt; dynamic mode re-logs on first write.
    if (!Cfg.StaticOmega)
      Undo.clear();
    FFrames = FlatAtomicSnapshot.Frames;
    RegStack = FlatAtomicSnapshot.Regs;
    Pc = FlatAtomicSnapshot.Pc;
    Natom = 0;
    PendingInputs.clear();
    PendingOutputs.clear();
    PendingOracle.clear();
    ++R.AtomicAborts;
    ++AbortsThisRegion;
    if (TraceSink *T = Cfg.Telemetry)
      T->regionRetry(Tau, CurrentRegion, AbortsThisRegion);
    if (AbortsThisRegion > Cfg.MaxAbortsPerRegion) {
      R.Starved = true;
      FFrames.clear();
      RegStack.clear();
    }
  } else {
    // JIT-Reboot: restore volatile state (identity here; costed). Pc is
    // untouched: execution resumes at the interrupted instruction.
    uint64_t RestCost =
        MachineCosts.RestoreBase + MachineCosts.RestorePerReg * TotalRegs;
    R.OnCycles += RestCost;
    Tau += RestCost;
  }
}

RunResult Interpreter::runOnceThreaded() {
  // TrackTaint is fixed at construction (MonitorFormal and Oracle turn it
  // on), so each interpreter always runs one taint instantiation.
  if (TrackTaint)
    return runThreadedLoop</*Hot=*/false, /*TaintOn=*/true>();
  const bool Hot = Cfg.Plan.kind() == FailurePlan::Kind::None &&
                   Energy == nullptr && !Cfg.MonitorBitVector &&
                   !Cfg.Telemetry && !Cfg.Profile;
  return Hot ? runThreadedLoop<true, false>() : runThreadedLoop<false, false>();
}

template <bool Hot, bool TaintOn> RunResult Interpreter::runThreadedLoop() {
  static_assert(!(Hot && TaintOn), "taint tracking runs the checked loop");
  RunResult R;
  Cfg.Plan.resetRun();
  Monitor->beginRun();

  FFrames.clear();
  FFrames.push_back(FlatFrame{/*ReturnPc=*/0, /*RegBase=*/0});
  RegStack.assign(Img->mainNumRegs(), RtValue());
  this->Pc = Img->mainEntryPc();
  ExecMode = Mode::Jit;
  Natom = 0;
  Undo.clear();
  PendingInputs.clear();
  PendingOutputs.clear();
  PendingOracle.clear();
  CommittedOracle.clear();
  Committed.clear();
  AbortsThisRegion = 0;
  CurrentRegion = -1;
  // Power failures with no step between them (the tree engine's count,
  // which it resets on every step that passes its header): the count
  // restarts at a failure only when Steps moved since the one before.
  [[maybe_unused]] uint64_t ConsecutiveFailures = 0;
  [[maybe_unused]] uint64_t StepsAtFailure = 0;

  const FlatInst *const Code = Img->code().data();
  [[maybe_unused]] const ThreadedOp *const TOps = Img->threadedOps().data();
  const uint64_t *const Costs = Img->costs().data();
  assert(Img->threadedOps().size() == Img->code().size());
  assert(TaintOn == TrackTaint && "one instantiation per taint setting");

  // Per-run constants, hoisted out of the step header; the Hot
  // instantiation drops the checks they guard entirely (asserted below).
  [[maybe_unused]] const FailurePlan::Kind PlanKind = Cfg.Plan.kind();
  [[maybe_unused]] const bool PlanMayFireBefore =
      PlanKind == FailurePlan::Kind::Pathological ||
      PlanKind == FailurePlan::Kind::Random;
  [[maybe_unused]] EnergyModel *const Store = Energy.get();
  const bool BitVector = Cfg.MonitorBitVector;
  [[maybe_unused]] const bool Formal = Cfg.MonitorFormal;
  // Telemetry/profiling observers: the Hot instantiation excludes them
  // (runOnceThreaded routes observed runs here as non-Hot), so the Hot
  // fast path carries not even the null tests.
  [[maybe_unused]] TraceSink *const Telem = Cfg.Telemetry;
  [[maybe_unused]] PcProfile *const Prof = Cfg.Profile;
  [[maybe_unused]] uint32_t ProfPrevPc = ~0u;
  [[maybe_unused]] uint16_t ProfPrevOp = 0;
  assert(!(Hot && (PlanMayFireBefore || Store || BitVector || Formal ||
                   Telem || Prof)) &&
         "Hot instantiation requires no plan, no energy, no monitors, no "
         "telemetry");
  // The step header's cost table. The checked loops read the image's table
  // with this run's watched PCs set to WatchedStep, so the header's one
  // compare also catches every step that needs the slow step.
  const uint64_t *const StepCosts =
      Hot ? Costs
          : Img->stepCosts(
                (PlanMayFireBefore || Prof ? ExecutableImage::WatchEvery
                                           : ExecutableImage::WatchNone) |
                (BitVector ? ExecutableImage::WatchUseChecks
                           : ExecutableImage::WatchNone) |
                (TaintOn && Formal ? ExecutableImage::WatchUseRegs
                                   : ExecutableImage::WatchNone));

  // Loop state mirrored into locals (the members stay authoritative for
  // everything out of line; see SyncOut/SyncIn). Every charge lands on
  // OnCycles and Tau alike (step costs and undo-log entries), so the loop
  // keeps only OnCycles as a running counter and derives Tau on demand
  // from its entry offset — one fewer add on every step. The offset is
  // wrap-exact: (Tau - OnCycles) + OnCycles == Tau in uint64 even when the
  // subtraction wraps. Everything that diverges them (off time, reboot
  // and region-entry charges) happens out of line, between a SyncOut and
  // a SyncIn.
  uint32_t Pc = this->Pc;
  uint64_t OnCycles = R.OnCycles;
  uint64_t TauMinusOn = this->Tau - OnCycles;
  uint64_t Steps = R.Steps;
  // The energy comparator as a countdown: the energy above the reserve.
  // A step of cost C fires it when C >= Headroom, exactly when
  // EnergyModel::consume(C) would leave the level at or below the
  // reserve; otherwise Headroom -= C. 0 means the level is already at or
  // below the reserve (the next step fires whatever its cost) and the
  // model holds the exact level; a positive Headroom is the level minus
  // ReserveCycles, written back by SyncOut. With no energy model it
  // starts at ~0, and a run's costs (bounded by RunOnCycleBudget) never
  // count it down to a real cost: only WatchedStep entries reach the slow
  // step.
  [[maybe_unused]] uint64_t Headroom =
      Store ? Store->headroom() : ExecutableImage::WatchedStep;
  // Why the slow step stopped short of its instruction; handled once,
  // out of the handlers, at the loop head (non-Hot only).
  enum class Stop : uint8_t { None, FailBefore, PowerLow };
  [[maybe_unused]] Stop Pending = Stop::None;
  uint32_t RegBase = FFrames.back().RegBase;
  // Current frame's register window. Every operand access previously went
  // through RegStack[RegBase + i] — re-loading the vector's data pointer
  // from memory each time, since the compiler must assume any opaque call
  // clobbers it. Hoisting the window into a local pointer drops a load
  // and an add from every register read and write; the refresh points are
  // exactly where the window can move: Call/Ret (resize + base change),
  // and SyncIn (a power-failure restore replaces the stack wholesale).
  RtValue *Regs = RegStack.data() + RegBase;
  const FlatInst *FI = Code + Pc;
  [[maybe_unused]] ThreadedOp TOp = ThreadedOp::Nop;
  uint64_t Cost = 0;

  auto SyncOut = [&] {
    this->Pc = Pc;
    this->Tau = TauMinusOn + OnCycles;
    R.OnCycles = OnCycles;
    R.Steps = Steps;
    if constexpr (!Hot) {
      if (Store && Headroom)
        Store->setHeadroom(Headroom);
    }
  };
  auto SyncIn = [&] {
    Pc = this->Pc;
    OnCycles = R.OnCycles;
    TauMinusOn = this->Tau - OnCycles;
    Steps = R.Steps;
    if constexpr (!Hot)
      Headroom = Store ? Store->headroom() : ExecutableImage::WatchedStep;
    RegBase = FFrames.empty() ? 0 : FFrames.back().RegBase;
    Regs = RegStack.data() + RegBase;
  };

  // Raw operand payload: what the taint-off fast paths read.
  auto RawVal = [&](const Operand &O) -> int64_t {
    if (O.isImm())
      return O.Imm;
    if (O.isReg())
      return Regs[O.Reg].V;
    return evalKindless().V;
  };
  // A whole operand value. Taint-off its span is empty by construction and
  // never read, so this compiles down to RawVal.
  auto Val = [&](const Operand &O) -> RtValue {
    if constexpr (TaintOn) {
      if (O.isImm())
        return RtValue(O.Imm);
      if (O.isReg())
        return Regs[O.Reg];
      return evalKindless();
    } else {
      return RtValue(RawVal(O));
    }
  };
  // Writes a register or NVM cell: the whole value under TaintOn, only the
  // payload otherwise (every span stays empty while taint is off).
  auto Put = [](RtValue &Slot, const RtValue &V) {
    if constexpr (TaintOn)
      Slot = V;
    else
      Slot.V = V.V;
  };

  // writeGlobal, but \returns the undo-log charge (0 without a new
  // entry) for the caller to add to OnCycles. It captures no loop local:
  // the compiler keeps it out of line (the loop is far past GCC's
  // large-function growth limit), and a captured counter would then live
  // in memory for the whole loop.
  auto StoreNvm = [this, &R, &Put](int G, int64_t Index,
                                   const RtValue &V) -> uint64_t {
    assert(Index >= 0 && Index < static_cast<int64_t>(Img->globalSize(G)));
    uint64_t Charge = 0;
    if (ExecMode == Mode::Atomic &&
        Undo.logIfFirst(G, Index, nvmCell(G, Index))) {
      ++R.UndoLogEntries;
      Charge = MachineCosts.UndoLogEntryCost;
    }
    Put(nvmCell(G, Index), V);
    return Charge;
  };

  auto ArithTrap = [&](const FlatInst &I, const char *What) {
    R.Trap = std::string(What) + " at " + P.function(I.Func)->name() + "@" +
             std::to_string(I.Label);
  };
  auto BoundsTrap = [&](const FlatInst &I) {
    R.Trap = "array index out of bounds in " + P.function(I.Func)->name();
  };

// Current simulated time: the entry offset plus the on-cycle counter.
#define OCELOT_TAU() (TauMinusOn + OnCycles)

  // The formal checker's use-register checks at \p I (TaintOn only), and
  // the input event \p I collects at \p Tau with value \p V. Both capture
  // only `this`, so no loop local escapes should they stay out of line.
  [[maybe_unused]] auto FormalUses = [this](const FlatInst &I, uint64_t Tau) {
    const RtValue *Frame = RegStack.data() + FFrames.back().RegBase;
    for (uint32_t Reg : Img->useRegs(I))
      Monitor->onFreshUseFormal(InstrRef(I.Func, I.Label), Frame[Reg].Taint,
                                Epoch, Tau);
  };
  auto InputAt = [this](const FlatInst &I, int64_t V, uint64_t Tau) {
    InputEvent E;
    E.Sensor = I.SensorId;
    E.Tau = Tau;
    E.Epoch = Epoch;
    E.Value = V;
    return E;
  };

// One instruction's step header: the budget check, then one compare of
// the step's StepCosts entry against the comparator headroom. A step that
// passes it is charged its cost (it is not watched, so that entry is its
// true cost) and needs nothing more of the reference header: no plan can
// fire before it, its energy draw is the countdown, and no observer or
// monitor acts at its PC. Every other step leaves for LSlowStep, which
// runs the reference header and dispatches the instruction itself.
// Fused handlers invoke this a second time for their tail slot, so a
// power failure can still strike between the two halves, and a slow tail
// runs as its plain code (the head has already written its result).
#define OCELOT_STEP()                                                          \
  do {                                                                         \
    if (OnCycles > RunOnCycleBudget) {                                         \
      R.Trap = "on-cycle budget exceeded";                                     \
      goto LDone;                                                              \
    }                                                                          \
    FI = Code + Pc;                                                            \
    TOp = TaintOn ? static_cast<ThreadedOp>(FI->Op) : TOps[Pc];                \
    Cost = StepCosts[Pc];                                                      \
    if constexpr (!Hot) {                                                      \
      if (Cost >= Headroom)                                                    \
        goto LSlowStep;                                                        \
      Headroom -= Cost;                                                        \
    }                                                                          \
    OnCycles += Cost;                                                          \
    ++Steps;                                                                   \
    ++Pc; /* Advance before executing (branches overwrite). */                 \
  } while (0)

// The tree engine's post-instruction kind-less-operand conversion, with
// the site of \p INST (the instruction whose handler just ran). When the
// flag fired the run is over (the next loop-head check would exit), so
// this jumps straight to the epilogue — which lets the handler enders
// below skip the per-step trap re-check entirely.
#define OCELOT_KINDCHECK(INST)                                                 \
  if (SawKindlessOperand) {                                                    \
    SawKindlessOperand = false;                                                \
    if (R.Trap.empty())                                                        \
      R.Trap = "operand without a kind at " +                                  \
               P.function((INST).Func)->name() + "@" +                         \
               std::to_string((INST).Label) + " (lowering bug)";               \
    goto LDone;                                                                \
  }

// Ends a handler that just raised a trap. The tree engine sets the trap,
// runs the kind-less conversion (which must still clear the flag, and
// keeps the first trap), then exits at the next loop check — so: clear
// the flag, keep the trap, stop.
#define OCELOT_TRAPPED(INST)                                                   \
  do {                                                                         \
    OCELOT_KINDCHECK(INST)                                                     \
    goto LDone;                                                                \
  } while (0)

// Handler enders. OCELOT_NEXT for handlers that may have read a kind-less
// operand (any RawVal/Val call); NOCHECK for handlers that provably
// cannot have set the flag.
//
// Both *replicate* the step header + dispatch instead of jumping back to
// one shared loop head. GCC 12 cross-jumps identical replicas together: a
// loop keeps 12-15 indirect jumps at -O2 and 24-28 at -O3, not one per
// handler (38-49 with -fno-gcse -fno-crossjumping, which measured no
// faster), yet each is shared by a few handlers, not by all of them.
//
// Neither re-checks the loop's exit condition — every path that can make
// it true leaves the fast path on the spot: traps jump to LDone (budget
// and kind-less in the macros above, explicit ones via OCELOT_TRAPPED),
// Ret checks frame emptiness itself, and starvation and power failures
// are handled at the fully-checked LTop.
#define OCELOT_NEXT_NOCHECK()                                                  \
  do {                                                                         \
    OCELOT_STEP();                                                             \
    OCELOT_DISPATCH();                                                         \
  } while (0)
#define OCELOT_NEXT(INST)                                                      \
  do {                                                                         \
    OCELOT_KINDCHECK(INST)                                                     \
    OCELOT_NEXT_NOCHECK();                                                     \
  } while (0)

#if defined(OCELOT_HAVE_COMPUTED_GOTO)
  // Direct-threaded dispatch: one indirect goto through a label table
  // indexed by the ThreadedOp code.
  static const void *const JumpTable[] = {
      &&LOp_Const,         &&LOp_Bin,          &&LOp_Un,
      &&LOp_Mov,           &&LOp_LoadG,        &&LOp_StoreG,
      &&LOp_LoadA,         &&LOp_StoreA,       &&LOp_LoadInd,
      &&LOp_StoreInd,      &&LOp_Input,        &&LOp_Call,
      &&LOp_Ret,           &&LOp_Br,           &&LOp_CondBr,
      &&LOp_Fresh,         &&LOp_Consistent,   &&LOp_AtomicStart,
      &&LOp_AtomicEnd,     &&LOp_Output,       &&LOp_Nop,
      // One handler per pattern-table row, in table order.
#define OCELOT_FUSED_LABEL(Head, Tail, Fwd) &&LOp_Fuse##Head##Tail,
      OCELOT_FUSED_PAIRS(OCELOT_FUSED_LABEL)
#undef OCELOT_FUSED_LABEL
  };
  static_assert(sizeof(JumpTable) / sizeof(JumpTable[0]) == NumThreadedOps,
                "jump table must cover every ThreadedOp");
#define OCELOT_CASE(name) LOp_##name
#define OCELOT_DISPATCH() goto *JumpTable[static_cast<size_t>(TOp)]
#else
// Portable fallback: a switch in a loop. Same handlers, one extra
// bounds-checkable branch per dispatch.
#define OCELOT_CASE(name) case ThreadedOp::name
#define OCELOT_DISPATCH() goto LSwitch
#endif

  goto LTop;

LTop:
  if constexpr (!Hot) {
    if (Pending != Stop::None) {
      // The step header stopped before charging its instruction.
      SyncOut();
      if (Pending == Stop::PowerLow) {
        // The comparator fired: apply consume's clamp to the exact level
        // SyncOut just wrote back. It leaves the level at or below the
        // reserve, so the model is authoritative again.
        [[maybe_unused]] const bool Fired = Store->consume(Cost);
        assert(Fired && "the countdown fired where consume does not");
        Headroom = 0;
        if (Steps != StepsAtFailure)
          ConsecutiveFailures = 0;
        StepsAtFailure = Steps;
        if (++ConsecutiveFailures > Cfg.MaxAbortsPerRegion)
          R.Starved = true;
      }
      Pending = Stop::None;
      if (R.Starved)
        goto LDone;
      powerFailFlat(R);
      SyncIn();
    }
  }
  if (FFrames.empty() || R.Starved || !R.Trap.empty())
    goto LDone;
  OCELOT_STEP();
  OCELOT_DISPATCH();

[[maybe_unused]] LSlowStep: // Unreferenced in the Hot instantiation.
  // The reference step header, identical to one tree-engine iteration
  // header after its budget check: failure injection, energy draw, cost,
  // tau and step accounting, the profiler, monitor use checks, PC advance.
  // OCELOT_STEP has set FI and TOp and left Pc at the instruction.
  if constexpr (!Hot) {
    if (PlanMayFireBefore &&
        Cfg.Plan.firesBefore(InstrRef(FI->Func, FI->Label), Rand)) {
      Pending = Stop::FailBefore;
      goto LTop;
    }
    Cost = Costs[Pc];
    if (Store) {
      if (Cost >= Headroom) {
        Pending = Stop::PowerLow;
        goto LTop;
      }
      Headroom -= Cost;
    }
    OnCycles += Cost;
    ++Steps;
    if (Prof) {
      Prof->step(Pc, static_cast<uint16_t>(FI->Op), ProfPrevPc, ProfPrevOp);
      ProfPrevPc = Pc;
      ProfPrevOp = static_cast<uint16_t>(FI->Op);
    }
    if (BitVector && FI->HasUseCheck)
      Monitor->onFreshUse(InstrRef(FI->Func, FI->Label), Img->useChecks(*FI),
                          OCELOT_TAU());
    if constexpr (TaintOn) {
      if (Formal && FI->UseRegsCount)
        FormalUses(*FI, OCELOT_TAU());
    }
    ++Pc; // Advance before executing (branches overwrite).
    OCELOT_DISPATCH();
  }

#if !defined(OCELOT_HAVE_COMPUTED_GOTO)
LSwitch:
  switch (TOp) {
#endif

  OCELOT_CASE(Const) : {
    Put(Regs[FI->Dst], RtValue(FI->A.Imm));
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(Mov) : {
    Put(Regs[FI->Dst], Val(FI->A));
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(Un) : {
    const RtValue A = Val(FI->A);
    Put(Regs[FI->Dst], RtValue(unEval(FI->UnKind, A.V), A.Taint));
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(Bin) : {
    const RtValue A = Val(FI->A);
    const RtValue B = Val(FI->B);
    int64_t V = 0;
    if (const char *Trap = binEval(FI->BinKind, A.V, B.V, V)) {
      ArithTrap(*FI, Trap);
      OCELOT_TRAPPED(*FI);
    }
    Put(Regs[FI->Dst],
        RtValue(V, TaintOn ? A.Taint.join(B.Taint) : EpochSpan()));
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(LoadG) : {
    Put(Regs[FI->Dst], nvmCell(FI->GlobalId, 0));
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(StoreG) : {
    OnCycles += StoreNvm(FI->GlobalId, 0, Val(FI->A));
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(LoadA) : {
    const int64_t Idx = Val(FI->A).V;
    if (Idx < 0 ||
        Idx >= static_cast<int64_t>(Img->globalSize(FI->GlobalId))) {
      BoundsTrap(*FI);
      OCELOT_TRAPPED(*FI);
    }
    Put(Regs[FI->Dst], nvmCell(FI->GlobalId, Idx));
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(StoreA) : {
    const int64_t Idx = Val(FI->A).V;
    if (Idx < 0 ||
        Idx >= static_cast<int64_t>(Img->globalSize(FI->GlobalId))) {
      BoundsTrap(*FI);
      OCELOT_TRAPPED(*FI);
    }
    OnCycles += StoreNvm(FI->GlobalId, Idx, Val(FI->B));
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(LoadInd) : {
    const int64_t G = Val(FI->A).V;
    assert(G >= 0 && G < P.numGlobals() && "bad reference value");
    Put(Regs[FI->Dst], nvmCell(static_cast<int>(G), 0));
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(StoreInd) : {
    const int64_t G = Val(FI->A).V;
    assert(G >= 0 && G < P.numGlobals() && "bad reference value");
    OnCycles += StoreNvm(static_cast<int>(G), 0, Val(FI->B));
    OCELOT_NEXT(*FI);
  }

// The complete Input instruction body (replay-or-sample, register write,
// observer callbacks, trace event), shared by the plain handler and the
// Input-fused pairs below. Leaves the sampled value in \p RESULT_, a
// declared int64_t local; traps exit via goto LDone like every handler.
// The trace event is only materialized under RecordTrace — it was never
// observable otherwise.
#define OCELOT_INPUT_BODY(RESULT_)                                             \
  do {                                                                         \
    if (Replay) {                                                              \
      if (ReplayIdx >= Replay->size()) {                                       \
        R.Trap = "replay input queue exhausted";                               \
        goto LDone;                                                            \
      }                                                                        \
      const InputEvent &RE = (*Replay)[ReplayIdx++];                           \
      if (RE.Sensor != FI->SensorId) {                                         \
        R.Trap = "replay sensor mismatch";                                     \
        goto LDone;                                                            \
      }                                                                        \
      RESULT_ = RE.Value;                                                      \
    } else {                                                                   \
      RESULT_ = Sensors->sample(FI->SensorId, OCELOT_TAU());                   \
    }                                                                          \
    if constexpr (TaintOn)                                                     \
      Regs[FI->Dst] =                                                          \
          RtValue(RESULT_, EpochSpan::of(static_cast<uint32_t>(Epoch)));       \
    else                                                                       \
      Regs[FI->Dst].V = RESULT_;                                               \
    if constexpr (!Hot) {                                                      \
      if (Telem)                                                               \
        Telem->sensorRead(OCELOT_TAU(), FI->SensorId, RESULT_);                \
    }                                                                          \
    if (BitVector)                                                             \
      onInputFlat(*FI, OCELOT_TAU());                                          \
    if (Cfg.RecordTrace) {                                                     \
      if (ExecMode == Mode::Atomic)                                            \
        PendingInputs.push_back(InputAt(*FI, RESULT_, OCELOT_TAU()));          \
      else                                                                     \
        Committed.Inputs.push_back(InputAt(*FI, RESULT_, OCELOT_TAU()));       \
    }                                                                          \
  } while (0)

  OCELOT_CASE(Input) : {
    int64_t V;
    OCELOT_INPUT_BODY(V);
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(Call) : {
    // Pc already points at the fall-through instruction: the return
    // address; Code[ReturnPc - 1] recovers this call on return.
    const uint32_t NewBase = static_cast<uint32_t>(RegStack.size());
    RegStack.resize(NewBase + FI->CalleeNumRegs);
    Regs = RegStack.data() + RegBase; // resize may have moved the stack
    const Operand *Args = Img->args(*FI);
    for (uint32_t A = 0; A < FI->ArgsCount; ++A)
      Put(RegStack[NewBase + A], Val(Args[A]));
    FFrames.push_back(FlatFrame{/*ReturnPc=*/Pc, /*RegBase=*/NewBase});
    RegBase = NewBase;
    Regs = RegStack.data() + NewBase;
    Pc = FI->CalleeEntryPc;
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(Ret) : {
    const FlatFrame F = FFrames.back();
    const RtValue V = FI->A.isNone() ? RtValue(0) : Val(FI->A);
    FFrames.pop_back();
    RegStack.resize(F.RegBase);
    if (!FFrames.empty()) {
      Pc = F.ReturnPc;
      RegBase = FFrames.back().RegBase;
      Regs = RegStack.data() + RegBase; // back to the caller's window
      const FlatInst &CallI = Code[F.ReturnPc - 1];
      if (CallI.Dst >= 0 && !FI->A.isNone())
        Put(Regs[CallI.Dst], V);
    }
    OCELOT_KINDCHECK(*FI)
    if (FFrames.empty())
      goto LDone; // Main returned: the only fast-path run completion.
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(Br) : {
    Pc = FI->Target;
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(CondBr) : {
    Pc = Val(FI->A).V != 0 ? FI->Target : FI->Target2;
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(Fresh) : {
    OCELOT_NEXT_NOCHECK(); // Checked at uses.
  }

  OCELOT_CASE(Consistent) : {
    if constexpr (TaintOn) {
      if (Formal)
        Monitor->onConsistentMarker(FI->Ord, Val(FI->A).Taint, OCELOT_TAU());
      OCELOT_NEXT(*FI);
    } else {
      OCELOT_NEXT_NOCHECK(); // The formal monitor's marker: taint-on only.
    }
  }

  OCELOT_CASE(AtomicStart) : {
    SyncOut(); // Snapshot captures the member Pc / tau charges land there.
    enterAtomicFlat(*FI, R);
    SyncIn();
    goto LTop; // Re-enter through the fully-checked loop head.
  }

  OCELOT_CASE(AtomicEnd) : {
    if constexpr (!Hot)
      SyncOut(); // commitAtomic's telemetry hook reads the member tau.
    commitAtomic(R);
    goto LTop; // Re-enter through the fully-checked loop head.
  }

  OCELOT_CASE(Output) : {
    // Out of line: the event owns a vector, and a computed-goto dispatch
    // leaves a handler's scope without running destructors. outputFlat
    // stamps the event with the member tau.
    this->Tau = OCELOT_TAU();
    outputFlat(*FI);
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(Nop) : {
    OCELOT_NEXT_NOCHECK();
  }

  // -- Superinstructions --------------------------------------------------
  // One per OCELOT_FUSED_PAIRS row (ExecutableImage.h). Taint-off only:
  // the TaintOn instantiation dispatches plain codes, so it never reaches
  // these. Each executes head then tail with the step header run again
  // for the tail (OCELOT_STEP), forwarding the head's result through a
  // local instead of re-reading the register file.

  OCELOT_CASE(FuseBinCondBr) : {
    const FlatInst &H = *FI;
    const int64_t AV = RawVal(H.A);
    const int64_t BV = RawVal(H.B);
    int64_t V = 0;
    if (const char *Trap = binEval(H.BinKind, AV, BV, V)) {
      ArithTrap(H, Trap);
      OCELOT_TRAPPED(H);
    }
    Regs[H.Dst].V = V;
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: the CondBr testing H.Dst.
    Pc = V != 0 ? FI->Target : FI->Target2;
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(FuseBinStoreG) : {
    const FlatInst &H = *FI;
    const int64_t AV = RawVal(H.A);
    const int64_t BV = RawVal(H.B);
    int64_t V = 0;
    if (const char *Trap = binEval(H.BinKind, AV, BV, V)) {
      ArithTrap(H, Trap);
      OCELOT_TRAPPED(H);
    }
    Regs[H.Dst].V = V;
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: the StoreG of H.Dst.
    OnCycles += StoreNvm(FI->GlobalId, 0, RtValue(V));
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(FuseBinStoreA) : {
    const FlatInst &H = *FI;
    const int64_t AV = RawVal(H.A);
    const int64_t BV = RawVal(H.B);
    int64_t V = 0;
    if (const char *Trap = binEval(H.BinKind, AV, BV, V)) {
      ArithTrap(H, Trap);
      OCELOT_TRAPPED(H);
    }
    Regs[H.Dst].V = V;
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: the StoreA whose value is H.Dst.
    const int64_t Idx = RawVal(FI->A);
    if (Idx < 0 ||
        Idx >= static_cast<int64_t>(Img->globalSize(FI->GlobalId))) {
      BoundsTrap(*FI);
      OCELOT_TRAPPED(*FI);
    }
    OnCycles += StoreNvm(FI->GlobalId, Idx, RtValue(V));
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(FuseLoadGBin) : {
    const FlatInst &H = *FI;
    const int64_t V0 = nvmCell(H.GlobalId, 0).V;
    Regs[H.Dst].V = V0;
    OCELOT_STEP(); // Tail: the Bin whose A operand is H.Dst.
    const int64_t BV = RawVal(FI->B);
    int64_t V = 0;
    if (const char *Trap = binEval(FI->BinKind, V0, BV, V)) {
      ArithTrap(*FI, Trap);
      OCELOT_TRAPPED(*FI);
    }
    Regs[FI->Dst].V = V;
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(FuseLoadABin) : {
    const FlatInst &H = *FI;
    const int64_t Idx = RawVal(H.A);
    if (Idx < 0 || Idx >= static_cast<int64_t>(Img->globalSize(H.GlobalId))) {
      BoundsTrap(H);
      OCELOT_TRAPPED(H);
    }
    const int64_t V0 = nvmCell(H.GlobalId, Idx).V;
    Regs[H.Dst].V = V0;
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: the Bin whose A operand is H.Dst.
    const int64_t BV = RawVal(FI->B);
    int64_t V = 0;
    if (const char *Trap = binEval(FI->BinKind, V0, BV, V)) {
      ArithTrap(*FI, Trap);
      OCELOT_TRAPPED(*FI);
    }
    Regs[FI->Dst].V = V;
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(FuseMovBin) : {
    const FlatInst &H = *FI;
    const int64_t V0 = RawVal(H.A);
    Regs[H.Dst].V = V0;
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: the Bin whose A operand is H.Dst.
    const int64_t BV = RawVal(FI->B);
    int64_t V = 0;
    if (const char *Trap = binEval(FI->BinKind, V0, BV, V)) {
      ArithTrap(*FI, Trap);
      OCELOT_TRAPPED(*FI);
    }
    Regs[FI->Dst].V = V;
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(FuseBinMov) : {
    const FlatInst &H = *FI;
    const int64_t AV = RawVal(H.A);
    const int64_t BV = RawVal(H.B);
    int64_t V = 0;
    if (const char *Trap = binEval(H.BinKind, AV, BV, V)) {
      ArithTrap(H, Trap);
      OCELOT_TRAPPED(H);
    }
    Regs[H.Dst].V = V;
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: the Mov copying H.Dst.
    Regs[FI->Dst].V = V;
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(FuseMovBr) : {
    const FlatInst &H = *FI;
    Regs[H.Dst].V = RawVal(H.A);
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: the unconditional Br.
    Pc = FI->Target;
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(FuseBinBin) : {
    const FlatInst &H = *FI;
    const int64_t AV = RawVal(H.A);
    const int64_t BV = RawVal(H.B);
    int64_t V0 = 0;
    if (const char *Trap = binEval(H.BinKind, AV, BV, V0)) {
      ArithTrap(H, Trap);
      OCELOT_TRAPPED(H);
    }
    Regs[H.Dst].V = V0;
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: the Bin whose A operand is H.Dst.
    const int64_t BV2 = RawVal(FI->B);
    int64_t V = 0;
    if (const char *Trap = binEval(FI->BinKind, V0, BV2, V)) {
      ArithTrap(*FI, Trap);
      OCELOT_TRAPPED(*FI);
    }
    Regs[FI->Dst].V = V;
    OCELOT_NEXT(*FI);
  }

  // Dispatch-elision pairs: no forwarding condition, so the tail executes
  // the plain handler body against the (already updated) register file.

  OCELOT_CASE(FuseMovLoadA) : {
    const FlatInst &H = *FI;
    Regs[H.Dst].V = RawVal(H.A);
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: a LoadA.
    const int64_t Idx = RawVal(FI->A);
    if (Idx < 0 ||
        Idx >= static_cast<int64_t>(Img->globalSize(FI->GlobalId))) {
      BoundsTrap(*FI);
      OCELOT_TRAPPED(*FI);
    }
    Regs[FI->Dst].V =
        nvmCell(FI->GlobalId, Idx).V;
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(FuseLoadALoadA) : {
    const FlatInst &H = *FI;
    const int64_t Idx0 = RawVal(H.A);
    if (Idx0 < 0 ||
        Idx0 >= static_cast<int64_t>(Img->globalSize(H.GlobalId))) {
      BoundsTrap(H);
      OCELOT_TRAPPED(H);
    }
    Regs[H.Dst].V =
        nvmCell(H.GlobalId, Idx0).V;
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: a second LoadA.
    const int64_t Idx = RawVal(FI->A);
    if (Idx < 0 ||
        Idx >= static_cast<int64_t>(Img->globalSize(FI->GlobalId))) {
      BoundsTrap(*FI);
      OCELOT_TRAPPED(*FI);
    }
    Regs[FI->Dst].V =
        nvmCell(FI->GlobalId, Idx).V;
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(FuseMovConsistent) : {
    const FlatInst &H = *FI;
    Regs[H.Dst].V = RawVal(H.A);
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: a Consistent marker (taint-off no-op).
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(FuseConsistentBin) : {
    OCELOT_STEP(); // Head was a no-op Consistent marker; tail: a Bin.
    const int64_t AV = RawVal(FI->A);
    const int64_t BV = RawVal(FI->B);
    int64_t V = 0;
    if (const char *Trap = binEval(FI->BinKind, AV, BV, V)) {
      ArithTrap(*FI, Trap);
      OCELOT_TRAPPED(*FI);
    }
    Regs[FI->Dst].V = V;
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(FuseInputMov) : {
    int64_t V;
    OCELOT_INPUT_BODY(V);
    OCELOT_STEP(); // Tail: a Mov copying the freshly sampled register.
    Regs[FI->Dst].V = V;
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(FuseMovInput) : {
    const FlatInst &H = *FI;
    Regs[H.Dst].V = RawVal(H.A);
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: an Input.
    int64_t V;
    OCELOT_INPUT_BODY(V);
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(FuseConsistentInput) : {
    OCELOT_STEP(); // Head was a no-op Consistent marker; tail: an Input.
    int64_t V;
    OCELOT_INPUT_BODY(V);
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(FuseMovMov) : {
    const FlatInst &H = *FI;
    Regs[H.Dst].V = RawVal(H.A);
    OCELOT_KINDCHECK(H)
    OCELOT_STEP(); // Tail: a second Mov against the updated register file.
    Regs[FI->Dst].V = RawVal(FI->A);
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(FuseFreshConsistent) : {
    OCELOT_STEP(); // Both slots are taint-off no-op markers.
    OCELOT_NEXT_NOCHECK();
  }

#if !defined(OCELOT_HAVE_COMPUTED_GOTO)
  }
  goto LDone; // Unreachable: every ThreadedOp has a case.
#endif

LDone:
  SyncOut();

  R.Completed = FFrames.empty() && R.Trap.empty() && !R.Starved;
  R.TraceData = std::move(Committed);
  Committed.clear();
  R.FinalTau = this->Tau;
  finishOracle(R);

  R.ViolatedFresh = Monitor->runFreshViolation();
  R.ViolatedConsistent = Monitor->runConsistentViolation();
  R.Violations = Monitor->takeViolations();
  return R;

#undef OCELOT_TAU
#undef OCELOT_STEP
#undef OCELOT_INPUT_BODY
#undef OCELOT_KINDCHECK
#undef OCELOT_TRAPPED
#undef OCELOT_NEXT
#undef OCELOT_NEXT_NOCHECK
#undef OCELOT_CASE
#undef OCELOT_DISPATCH
}

template RunResult Interpreter::runThreadedLoop<true, false>();
template RunResult Interpreter::runThreadedLoop<false, false>();
template RunResult Interpreter::runThreadedLoop<false, true>();
