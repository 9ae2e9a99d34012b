//===- InterpreterThreaded.cpp - Computed-goto dispatch with superinstructions ---===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The threaded dispatch engine: computed-goto direct-threaded dispatch
/// (with a portable switch fallback when the compiler lacks the labels-as-
/// values extension) over the image's ThreadedOp view, in which the
/// build-time peephole pass fused hot adjacent opcode pairs into
/// superinstructions (ExecutableImage::buildThreadedView).
///
/// Like the flat engine it accelerates, every rule here must mirror the
/// tree engine exactly — same cost charging, same RNG draw sequence, same
/// monitor callbacks, same trap strings — so the three engines stay
/// bitwise-identical on every benchmark x model x plan x seed cell
/// (pinned by ExecImageTest and DifferentialFuzzTest). Three properties
/// carry that guarantee through fusion:
///
///  * A fused handler replicates the complete per-instruction step
///    header (failure injection, energy draw, cost/tau charging, monitor
///    checks) for *both* slots — only the dispatch between them is
///    elided — so a power failure can still strike between head and tail.
///  * A pair's tail keeps its plain dispatch code. A JIT reboot resumes
///    at the interrupted PC, which may be mid-pair; dispatching the
///    tail's plain code there is exactly the unfused semantics.
///  * Fusion never spans a leader (block start or post-call resume
///    point), so every branch, return and region re-entry lands on a
///    plain code.
///
/// The loop is only ever instantiated taint-off; runOnceThreaded routes
/// taint-tracking configs to the flat loop's taint instantiation, which
/// carries a TaintId next to every payload. The Hot
/// instantiation additionally assumes no failure plan, no energy model
/// and no monitors — the steady-state throughput configuration — and
/// keeps PC/tau/lifetime counters in locals the whole run.
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

RunResult Interpreter::runOnceThreaded() {
  // Taint tracking (the formal monitor and the oracle force it on) runs
  // the flat loop's taint instantiation: identical machine behavior.
  if (Cfg.TrackTaint)
    return runFlatLoop<true>();
  const bool Hot = Cfg.Plan.kind() == FailurePlan::Kind::None &&
                   Energy == nullptr && !Cfg.MonitorBitVector &&
                   !Cfg.MonitorFormal && !Cfg.Telemetry && !Cfg.Profile;
  return Hot ? runThreadedLoop<true>() : runThreadedLoop<false>();
}

template <bool Hot> RunResult Interpreter::runThreadedLoop() {
  RunResult R;
  Cfg.Plan.resetRun();
  Monitor->beginRun();
  size_t ViolationsBefore = Monitor->violations().size();

  FFrames.clear();
  FFrames.push_back(FlatFrame{/*ReturnPc=*/0, /*RegBase=*/0});
  RegStack.assign(Img->mainNumRegs(), RtValue());
  this->Pc = Img->mainEntryPc();
  ExecMode = Mode::Jit;
  Natom = 0;
  Undo.clear();
  PendingInputs.clear();
  PendingOutputs.clear();
  Committed.clear();
  AbortsThisRegion = 0;
  CurrentRegion = -1;
  [[maybe_unused]] uint64_t ConsecutiveFailures = 0;

  const FlatInst *const Code = Img->code().data();
  const ThreadedOp *const TOps = Img->threadedOps().data();
  const uint64_t *const Costs = CostTable;
  assert(Img->threadedOps().size() == Img->code().size());
  assert(!Cfg.TrackTaint && "threaded loop is the taint-free fast path");

  // Per-run constants, hoisted exactly like the flat loop's; the Hot
  // instantiation drops the checks they guard entirely (asserted below).
  [[maybe_unused]] const FailurePlan::Kind PlanKind = Cfg.Plan.kind();
  [[maybe_unused]] const bool PlanMayFireBefore =
      PlanKind == FailurePlan::Kind::Pathological ||
      PlanKind == FailurePlan::Kind::Random;
  [[maybe_unused]] const bool NeedEnergyCheck =
      Energy != nullptr || PlanKind == FailurePlan::Kind::Periodic;
  const bool BitVector = Cfg.MonitorBitVector;
  // Telemetry/profiling observers: the Hot instantiation excludes them
  // (runOnceThreaded routes observed runs here as non-Hot), so the Hot
  // fast path carries not even the null tests.
  [[maybe_unused]] TraceSink *const Telem = Cfg.Telemetry;
  [[maybe_unused]] PcProfile *const Prof = Cfg.Profile;
  [[maybe_unused]] uint32_t ProfPrevPc = ~0u;
  [[maybe_unused]] uint16_t ProfPrevOp = 0;
  assert(!(Hot && (PlanMayFireBefore || NeedEnergyCheck || BitVector ||
                   Telem || Prof)) &&
         "Hot instantiation requires no plan, no energy, no monitors, no "
         "telemetry");

  // Hot-loop state mirrored into locals (the members stay authoritative
  // for everything out of line): synced out before and back in after
  // every call that reads or writes Pc / tau / lifetime counters or can
  // replace the frame stack.
  uint32_t Pc = this->Pc;
  uint64_t Tau = this->Tau;
  uint64_t LifetimeOn = this->LifetimeOn;
  uint64_t OnCycles = R.OnCycles;
  // In the Hot instantiation every charge lands on OnCycles, Tau and
  // LifetimeOn alike (step costs and undo-log entries; there is no energy
  // model or failure plan to diverge them), so the loop keeps only
  // OnCycles as a running counter and derives the other two on demand
  // from their entry offsets — two fewer adds on every step. The offsets
  // are wrap-exact: (Tau - OnCycles) + OnCycles == Tau in uint64 even
  // when the subtraction wraps. Non-Hot keeps all three live (plans and
  // energy accounting read and reset them mid-run).
  uint64_t TauMinusOn = Tau - OnCycles;
  uint64_t LifeMinusOn = LifetimeOn - OnCycles;
  uint64_t Steps = R.Steps;
  uint32_t RegBase = FFrames.back().RegBase;
  // Current frame's register window. Every operand access previously went
  // through RegStack[RegBase + i] — re-loading the vector's data pointer
  // from memory each time, since the compiler must assume any opaque call
  // clobbers it. Hoisting the window into a local pointer drops a load
  // and an add from every register read and write; the refresh points are
  // exactly where the window can move: Call/Ret (resize + base change),
  // and SyncIn (a power-failure restore replaces the stack wholesale).
  RtValue *Regs = RegStack.data() + RegBase;
  const uint64_t MaxOnCycles = Cfg.MaxOnCyclesPerRun;
  const FlatInst *FI = Code + Pc;
  [[maybe_unused]] ThreadedOp TOp = ThreadedOp::Nop;
  uint64_t Cost = 0;

  auto SyncOut = [&] {
    this->Pc = Pc;
    if constexpr (Hot) {
      this->Tau = TauMinusOn + OnCycles;
      this->LifetimeOn = LifeMinusOn + OnCycles;
    } else {
      this->Tau = Tau;
      this->LifetimeOn = LifetimeOn;
    }
    R.OnCycles = OnCycles;
    R.Steps = Steps;
  };
  auto SyncIn = [&] {
    Pc = this->Pc;
    OnCycles = R.OnCycles;
    if constexpr (Hot) {
      TauMinusOn = this->Tau - OnCycles;
      LifeMinusOn = this->LifetimeOn - OnCycles;
    } else {
      Tau = this->Tau;
      LifetimeOn = this->LifetimeOn;
    }
    Steps = R.Steps;
    RegBase = FFrames.empty() ? 0 : FFrames.back().RegBase;
    Regs = RegStack.data() + RegBase;
  };

  // Raw operand payload — mirrors the flat loop's taint-off RawVal.
  auto RawVal = [&](const Operand &O) -> int64_t {
    if (O.isImm())
      return O.Imm;
    if (O.isReg())
      return Regs[O.Reg].V;
    return evalKindless().V;
  };

  // writeGlobalRaw with the tau/lifetime charges applied to the locals.
  auto StoreNvmRaw = [&](int G, int64_t Index, int64_t V) {
    assert(Index >= 0 && Index < static_cast<int64_t>(Img->globalSize(G)));
    if (ExecMode == Mode::Atomic) {
      if (Undo.logIfFirst(G, Index, nvmCell(G, Index))) {
        ++R.UndoLogEntries;
        OnCycles += Cfg.Costs.UndoLogEntryCost;
        if constexpr (!Hot) {
          LifetimeOn += Cfg.Costs.UndoLogEntryCost;
          Tau += Cfg.Costs.UndoLogEntryCost;
        }
      }
    }
    nvmCell(G, Index).V = V;
  };

  auto ArithTrap = [&](const FlatInst &I, const char *What) {
    R.Trap = std::string(What) + " at " + P.function(I.Func)->name() + "@" +
             std::to_string(I.Label);
  };
  auto BoundsTrap = [&](const FlatInst &I) {
    R.Trap = "array index out of bounds in " + P.function(I.Func)->name();
  };

// Current simulated time, valid in both instantiations: the Hot loop
// only advances OnCycles (see the locals above), so tau is its entry
// offset plus the counter; the non-Hot loop keeps Tau itself live.
#define OCELOT_TAU() (Hot ? TauMinusOn + OnCycles : Tau)

// One instruction's step header, identical to one flat-loop iteration
// header: budget check, failure injection, energy draw, cost/tau/step
// accounting, bit-vector use check, PC advance. Fused handlers invoke it
// a second time for their tail slot, so a power failure can still strike
// between the two halves (resuming at the tail's plain code).
#define OCELOT_STEP()                                                          \
  do {                                                                         \
    if (OnCycles > MaxOnCycles) {                                              \
      R.Trap = "on-cycle budget exceeded";                                     \
      goto LDone;                                                              \
    }                                                                          \
    FI = Code + Pc;                                                            \
    TOp = TOps[Pc];                                                            \
    if constexpr (!Hot) {                                                      \
      if (PlanMayFireBefore &&                                                 \
          Cfg.Plan.firesBefore(InstrRef(FI->Func, FI->Label), Rand)) {         \
        SyncOut();                                                             \
        powerFailFlat(R);                                                      \
        SyncIn();                                                              \
        goto LTop;                                                             \
      }                                                                        \
    }                                                                          \
    Cost = Costs[Pc];                                                          \
    if constexpr (!Hot) {                                                      \
      if (NeedEnergyCheck) {                                                   \
        this->LifetimeOn = LifetimeOn; /* periodic plans arm against it */     \
        if (checkEnergyAndPlan(Cost)) {                                        \
          ++ConsecutiveFailures;                                               \
          if (ConsecutiveFailures > Cfg.MaxAbortsPerRegion) {                  \
            R.Starved = true;                                                  \
            goto LDone;                                                        \
          }                                                                    \
          SyncOut();                                                           \
          powerFailFlat(R);                                                    \
          SyncIn();                                                            \
          goto LTop;                                                           \
        }                                                                      \
      }                                                                        \
      ConsecutiveFailures = 0;                                                 \
    }                                                                          \
    OnCycles += Cost;                                                          \
    if constexpr (!Hot) {                                                      \
      LifetimeOn += Cost;                                                      \
      Tau += Cost;                                                             \
    }                                                                          \
    ++Steps;                                                                   \
    if constexpr (!Hot) {                                                      \
      if (Prof) {                                                              \
        Prof->step(Pc, static_cast<uint16_t>(FI->Op), ProfPrevPc,              \
                   ProfPrevOp);                                                \
        ProfPrevPc = Pc;                                                       \
        ProfPrevOp = static_cast<uint16_t>(FI->Op);                            \
      }                                                                        \
      if (BitVector && FI->HasUseCheck)                                        \
        Monitor->onFreshUse(InstrRef(FI->Func, FI->Label),                     \
                            Img->useChecks(*FI), Tau);                         \
    }                                                                          \
    ++Pc; /* Advance before executing (branches overwrite). */                 \
  } while (0)

// The flat loop's post-instruction kind-less-operand conversion, with the
// site of \p INST (the instruction whose handler just ran). When the flag
// fired the run is over (the flat loop's next top-of-iteration check
// would exit), so this jumps straight to the epilogue — which lets the
// handler enders below skip the per-step trap re-check entirely.
#define OCELOT_KINDCHECK(INST)                                                 \
  if (SawKindlessOperand) {                                                    \
    SawKindlessOperand = false;                                                \
    if (R.Trap.empty())                                                        \
      R.Trap = "operand without a kind at " +                                  \
               P.function((INST).Func)->name() + "@" +                         \
               std::to_string((INST).Label) + " (lowering bug)";               \
    goto LDone;                                                                \
  }

// Ends a handler that just raised a trap. The flat loop sets the trap,
// runs the kind-less conversion (which must still clear the flag, and
// keeps the first trap), then exits at the next loop check — so: clear
// the flag, keep the trap, stop.
#define OCELOT_TRAPPED(INST)                                                   \
  do {                                                                         \
    OCELOT_KINDCHECK(INST)                                                     \
    goto LDone;                                                                \
  } while (0)

// Handler enders. OCELOT_NEXT for handlers that may have read a kind-less
// operand (any RawVal call); NOCHECK for handlers that provably cannot
// have set the flag.
//
// Both *replicate* the step header + dispatch instead of jumping back to
// a single shared loop head: with computed goto this gives every handler
// its own indirect branch, so the branch predictor learns per-handler
// successor distributions (the classic threaded-dispatch win; a shared
// dispatch site collapses them all into one unpredictable branch).
//
// Neither re-checks the flat loop's exit condition — every path that can
// make it true leaves the fast path on the spot: traps jump to LDone
// (budget and kind-less in the macros above, explicit ones via
// OCELOT_TRAPPED), Ret checks frame emptiness itself, and starvation and
// power failures happen out of line and resume through the fully-checked
// LTop.
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
      &&LOp_FuseBinCondBr, &&LOp_FuseBinStoreG, &&LOp_FuseBinStoreA,
      &&LOp_FuseLoadGBin,  &&LOp_FuseLoadABin, &&LOp_FuseConstStoreG,
      &&LOp_FuseLoadGStoreG, &&LOp_FuseMovBin, &&LOp_FuseBinMov,
      &&LOp_FuseMovBr,     &&LOp_FuseBinBin,   &&LOp_FuseMovLoadA,
      &&LOp_FuseBinLoadA,  &&LOp_FuseLoadALoadA, &&LOp_FuseMovConsistent,
      &&LOp_FuseConsistentBin, &&LOp_FuseInputMov, &&LOp_FuseMovInput,
      &&LOp_FuseConsistentInput, &&LOp_FuseMovMov,
      &&LOp_FuseFreshConsistent};
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
  if (FFrames.empty() || R.Starved || !R.Trap.empty())
    goto LDone;
  OCELOT_STEP();
  OCELOT_DISPATCH();

#if !defined(OCELOT_HAVE_COMPUTED_GOTO)
LSwitch:
  switch (TOp) {
#endif

  OCELOT_CASE(Const) : {
    Regs[FI->Dst].V = FI->A.Imm;
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(Mov) : {
    Regs[FI->Dst].V = RawVal(FI->A);
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(Un) : {
    Regs[FI->Dst].V = unEval(FI->UnKind, RawVal(FI->A));
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(Bin) : {
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

  OCELOT_CASE(LoadG) : {
    Regs[FI->Dst].V =
        nvmCell(FI->GlobalId, 0).V;
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(StoreG) : {
    StoreNvmRaw(FI->GlobalId, 0, RawVal(FI->A));
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(LoadA) : {
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

  OCELOT_CASE(StoreA) : {
    const int64_t Idx = RawVal(FI->A);
    if (Idx < 0 ||
        Idx >= static_cast<int64_t>(Img->globalSize(FI->GlobalId))) {
      BoundsTrap(*FI);
      OCELOT_TRAPPED(*FI);
    }
    StoreNvmRaw(FI->GlobalId, Idx, RawVal(FI->B));
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(LoadInd) : {
    const int64_t G = RawVal(FI->A);
    assert(G >= 0 && G < P.numGlobals() && "bad reference value");
    Regs[FI->Dst].V =
        nvmCell(static_cast<int>(G), 0).V;
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(StoreInd) : {
    const int64_t G = RawVal(FI->A);
    assert(G >= 0 && G < P.numGlobals() && "bad reference value");
    StoreNvmRaw(static_cast<int>(G), 0, RawVal(FI->B));
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
    Regs[FI->Dst].V = RESULT_;                                                 \
    if constexpr (!Hot) {                                                      \
      if (Telem)                                                               \
        Telem->sensorRead(Tau, FI->SensorId, RESULT_);                         \
    }                                                                          \
    if (BitVector)                                                             \
      onInputFlat(*FI, OCELOT_TAU());                                          \
    if (Cfg.RecordTrace) {                                                     \
      InputEvent E;                                                            \
      E.Sensor = FI->SensorId;                                                 \
      E.Tau = OCELOT_TAU();                                                    \
      E.Epoch = Epoch;                                                         \
      E.Value = RESULT_;                                                       \
      if (ExecMode == Mode::Atomic)                                            \
        PendingInputs.push_back(E);                                            \
      else                                                                     \
        Committed.Inputs.push_back(E);                                         \
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
      RegStack[NewBase + A].V = RawVal(Args[A]);
    FFrames.push_back(FlatFrame{/*ReturnPc=*/Pc, /*RegBase=*/NewBase});
    RegBase = NewBase;
    Regs = RegStack.data() + NewBase;
    Pc = FI->CalleeEntryPc;
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(Ret) : {
    const FlatFrame F = FFrames.back();
    const int64_t V = FI->A.isNone() ? 0 : RawVal(FI->A);
    FFrames.pop_back();
    RegStack.resize(F.RegBase);
    if (!FFrames.empty()) {
      Pc = F.ReturnPc;
      RegBase = FFrames.back().RegBase;
      Regs = RegStack.data() + RegBase; // back to the caller's window
      const FlatInst &CallI = Code[F.ReturnPc - 1];
      if (CallI.Dst >= 0 && !FI->A.isNone())
        Regs[CallI.Dst].V = V;
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
    const int64_t V = RawVal(FI->A);
    Pc = V != 0 ? FI->Target : FI->Target2;
    OCELOT_NEXT(*FI);
  }

  OCELOT_CASE(Fresh) : {
    OCELOT_NEXT_NOCHECK(); // Checked at uses.
  }

  OCELOT_CASE(Consistent) : {
    OCELOT_NEXT_NOCHECK(); // Formal-monitor marker: taint-on only.
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
  // Each executes head then tail with the full step header replicated for
  // the tail (OCELOT_STEP), forwarding the head's result through a local
  // instead of re-reading the register file.

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
    StoreNvmRaw(FI->GlobalId, 0, V);
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
    StoreNvmRaw(FI->GlobalId, Idx, V);
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

  OCELOT_CASE(FuseConstStoreG) : {
    const FlatInst &H = *FI;
    const int64_t V = H.A.Imm;
    Regs[H.Dst].V = V;
    OCELOT_STEP(); // Tail: the StoreG of H.Dst.
    StoreNvmRaw(FI->GlobalId, 0, V);
    OCELOT_NEXT_NOCHECK();
  }

  OCELOT_CASE(FuseLoadGStoreG) : {
    const FlatInst &H = *FI;
    const int64_t V = nvmCell(H.GlobalId, 0).V;
    Regs[H.Dst].V = V;
    OCELOT_STEP(); // Tail: the StoreG of H.Dst.
    StoreNvmRaw(FI->GlobalId, 0, V);
    OCELOT_NEXT_NOCHECK();
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

  OCELOT_CASE(FuseBinLoadA) : {
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
  R.FinalTau = OCELOT_TAU();

  R.ViolatedFresh = Monitor->runFreshViolation();
  R.ViolatedConsistent = Monitor->runConsistentViolation();
  const auto &AllViolations = Monitor->violations();
  for (size_t I = ViolationsBefore; I < AllViolations.size(); ++I)
    R.Violations.push_back(AllViolations[I]);
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

template RunResult Interpreter::runThreadedLoop<true>();
template RunResult Interpreter::runThreadedLoop<false>();
