//===- InterpreterFlat.cpp - PC-indexed dispatch over the ExecutableImage --------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat dispatch engine: the hot loop the whole evaluation runs on.
/// Fetch is one indexed load from the image's contiguous code array, cycle
/// costs come from a PC-indexed table, branch/call targets are pre-resolved
/// absolute PCs, and the monitor/region side tables replace the per-step
/// map lookups and linear scans of the tree engine (Interpreter.cpp). The
/// loop is specialized on taint tracking: with taint off (the default),
/// values move as raw int64 payloads; with it on, every value carries a
/// TaintId that Bin merges through the interpreter's TaintTable.
///
/// Every rule here must mirror the tree engine exactly — same cost
/// charging, same RNG draw sequence, same monitor callbacks, same trap
/// strings — so that the two engines stay bitwise-identical on every
/// benchmark x model x plan x seed cell (pinned by ExecImageTest).
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
      FI.InputOrd, InstrRef(FI.Func, FI.Label), FFrames.size(),
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
  // Oracle implies TrackTaint, so the ids read here are live.
  std::vector<InputEvent> Fused;
  for (uint32_t A = 0; A < FI.ArgsCount; ++A) {
    const RtValue V = evalFlat(Args[A]);
    E.Args.push_back(V.V);
    if (Cfg.Oracle)
      Taints.appendTo(V.Taint, Fused);
  }
  if (Cfg.Oracle)
    recordOracleOutput(E.Kind, std::move(Fused));
  if (Cfg.RecordTrace) {
    if (ExecMode == Mode::Atomic)
      PendingOutputs.push_back(std::move(E));
    else
      Committed.Outputs.push_back(std::move(E));
  }
}

void Interpreter::writeGlobalRaw(int G, int64_t Index, int64_t V,
                                 RunResult &R) {
  assert(Index >= 0 && Index < static_cast<int64_t>(Img->globalSize(G)));
  if (ExecMode == Mode::Atomic) {
    if (Undo.logIfFirst(G, Index, nvmCell(G, Index))) {
      ++R.UndoLogEntries;
      R.OnCycles += Cfg.Costs.UndoLogEntryCost;
      LifetimeOn += Cfg.Costs.UndoLogEntryCost;
      Tau += Cfg.Costs.UndoLogEntryCost;
    }
  }
  // Every taint id is 0 by the !TrackTaint invariant, so only the payload
  // moves (writeGlobal would assign the same state).
  nvmCell(G, Index).V = V;
}

void Interpreter::enterAtomicFlat(const FlatInst &I, RunResult &R) {
  if (ExecMode == Mode::Atomic) {
    ++Natom; // Atom-Start-Inner: flattening counter only.
    return;
  }
  // Atom-Start-Outer: snapshot volatile state positioned after the start
  // (Pc has already advanced past the AtomicStart, like the tree engine's
  // Idx). Saving the volatile context costs like a JIT checkpoint (§6.3).
  uint64_t SaveCost = Cfg.Costs.RegionEntryPerFrame * FFrames.size();
  R.OnCycles += SaveCost;
  LifetimeOn += SaveCost;
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
          R.OnCycles += Cfg.Costs.AtomicOmegaPerCell;
          LifetimeOn += Cfg.Costs.AtomicOmegaPerCell;
          Tau += Cfg.Costs.AtomicOmegaPerCell;
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
        Cfg.Costs.RestoreBase + Cfg.Costs.RestorePerReg * TotalRegs;
    R.OnCycles += RestCost;
    LifetimeOn += RestCost;
    Tau += RestCost;
  }
}

RunResult Interpreter::runOnceFlat() {
  // TrackTaint is fixed at construction (MonitorFormal forces it on), so
  // each interpreter always runs one instantiation.
  return Cfg.TrackTaint ? runFlatLoop<true>() : runFlatLoop<false>();
}

template <bool TaintOn> RunResult Interpreter::runFlatLoop() {
  RunResult R;
  Cfg.Plan.resetRun();
  Monitor->beginRun();
  size_t ViolationsBefore = Monitor->violations().size();

  FFrames.clear();
  FFrames.push_back(FlatFrame{/*ReturnPc=*/0, /*RegBase=*/0});
  RegStack.assign(Img->mainNumRegs(), RtValue());
  Pc = Img->mainEntryPc();
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
  uint64_t ConsecutiveFailures = 0;

  const FlatInst *Code = Img->code().data();
  const uint64_t *Costs = CostTable;
  // Per-run constants, hoisted out of the hot loop. Skipping a call is
  // legal only when it neither returns true nor mutates state (RNG draws,
  // periodic-plan re-arming, energy consumption).
  const FailurePlan::Kind PlanKind = Cfg.Plan.kind();
  const bool PlanMayFireBefore = PlanKind == FailurePlan::Kind::Pathological ||
                                 PlanKind == FailurePlan::Kind::Random;
  const bool NeedEnergyCheck =
      Energy != nullptr || PlanKind == FailurePlan::Kind::Periodic;
  const bool BitVector = Cfg.MonitorBitVector;
  const bool Formal = Cfg.MonitorFormal;
  assert((TaintOn || !Formal) && "MonitorFormal implies TrackTaint");
  // Telemetry/profiling observers: one predictable null test per step
  // when off; never any effect on results.
  TraceSink *const Telem = Cfg.Telemetry;
  PcProfile *const Prof = Cfg.Profile;
  uint32_t ProfPrevPc = ~0u;
  uint16_t ProfPrevOp = 0;

  // Raw operand payload — the taint-off fast path touches no RtValue.
  auto RawVal = [&](const Operand &O) -> int64_t {
    if (O.isImm())
      return O.Imm;
    if (O.isReg())
      return RegStack[FFrames.back().RegBase + static_cast<size_t>(O.Reg)]
          .V;
    return evalKindless().V;
  };

  while (!FFrames.empty() && !R.Starved && R.Trap.empty()) {
    if (R.OnCycles > Cfg.MaxOnCyclesPerRun) {
      R.Trap = "on-cycle budget exceeded";
      break;
    }
    const FlatInst &FI = Code[Pc];
    InstrRef Site(FI.Func, FI.Label);

    // Failure injection before the instruction (pathological / random).
    if (PlanMayFireBefore && Cfg.Plan.firesBefore(Site, Rand)) {
      powerFailFlat(R);
      continue;
    }
    uint64_t Cost = Costs[Pc];
    if (NeedEnergyCheck && checkEnergyAndPlan(Cost)) {
      ++ConsecutiveFailures;
      if (ConsecutiveFailures > Cfg.MaxAbortsPerRegion) {
        R.Starved = true;
        break;
      }
      powerFailFlat(R);
      continue;
    }
    ConsecutiveFailures = 0;
    R.OnCycles += Cost;
    LifetimeOn += Cost;
    Tau += Cost;
    ++R.Steps;
    if (Prof) {
      Prof->step(Pc, static_cast<uint16_t>(FI.Op), ProfPrevPc, ProfPrevOp);
      ProfPrevPc = Pc;
      ProfPrevOp = static_cast<uint16_t>(FI.Op);
    }

    const uint32_t RegBase = FFrames.back().RegBase;

    // Freshness checks fire when a use of a fresh variable executes. The
    // side tables make the common case (no check at this PC) two flag
    // tests instead of two map lookups.
    if (BitVector && FI.HasUseCheck)
      Monitor->onFreshUse(Site, Img->useChecks(FI), Tau);
    if constexpr (TaintOn) {
      if (Formal && FI.UseRegsCount) {
        for (uint32_t Reg : Img->useRegs(FI))
          Monitor->onFreshUseFormal(Site, Taints,
                                    RegStack[RegBase + Reg].Taint, Epoch,
                                    Tau);
      }
    }

    ++Pc; // Advance before executing (branches overwrite).

    switch (FI.Op) {
    case Opcode::Const:
      if constexpr (TaintOn)
        RegStack[RegBase + static_cast<size_t>(FI.Dst)] = RtValue(FI.A.Imm);
      else
        RegStack[RegBase + static_cast<size_t>(FI.Dst)].V = FI.A.Imm;
      break;
    case Opcode::Mov:
      if constexpr (TaintOn)
        RegStack[RegBase + static_cast<size_t>(FI.Dst)] = evalFlat(FI.A);
      else
        RegStack[RegBase + static_cast<size_t>(FI.Dst)].V = RawVal(FI.A);
      break;
    case Opcode::Un:
      if constexpr (TaintOn) {
        const RtValue A = evalFlat(FI.A);
        RegStack[RegBase + static_cast<size_t>(FI.Dst)] =
            RtValue(unEval(FI.UnKind, A.V), A.Taint);
      } else {
        RegStack[RegBase + static_cast<size_t>(FI.Dst)].V =
            unEval(FI.UnKind, RawVal(FI.A));
      }
      break;
    case Opcode::Bin: {
      int64_t AV, BV;
      RtValue A, B;
      if constexpr (TaintOn) {
        A = evalFlat(FI.A);
        B = evalFlat(FI.B);
        AV = A.V;
        BV = B.V;
      } else {
        AV = RawVal(FI.A);
        BV = RawVal(FI.B);
      }
      int64_t V = 0;
      if (const char *Trap = binEval(FI.BinKind, AV, BV, V)) {
        R.Trap = std::string(Trap) + " at " + P.function(Site.Func)->name() +
                 "@" + std::to_string(Site.Label);
        break;
      }
      if constexpr (TaintOn) {
        RegStack[RegBase + static_cast<size_t>(FI.Dst)] =
            RtValue(V, Taints.merge(A.Taint, B.Taint));
      } else {
        RegStack[RegBase + static_cast<size_t>(FI.Dst)].V = V;
      }
      break;
    }
    case Opcode::LoadG:
      if constexpr (TaintOn)
        RegStack[RegBase + static_cast<size_t>(FI.Dst)] =
            nvmCell(FI.GlobalId, 0);
      else
        RegStack[RegBase + static_cast<size_t>(FI.Dst)].V =
            nvmCell(FI.GlobalId, 0).V;
      break;
    case Opcode::StoreG:
      if constexpr (TaintOn)
        writeGlobal(FI.GlobalId, 0, evalFlat(FI.A), R);
      else
        writeGlobalRaw(FI.GlobalId, 0, RawVal(FI.A), R);
      break;
    case Opcode::LoadA: {
      int64_t Idx = TaintOn ? evalFlat(FI.A).V : RawVal(FI.A);
      if (Idx < 0 ||
          Idx >= static_cast<int64_t>(Img->globalSize(FI.GlobalId))) {
        R.Trap = "array index out of bounds in " +
                 P.function(Site.Func)->name();
        break;
      }
      if constexpr (TaintOn)
        RegStack[RegBase + static_cast<size_t>(FI.Dst)] =
            nvmCell(FI.GlobalId, Idx);
      else
        RegStack[RegBase + static_cast<size_t>(FI.Dst)].V =
            nvmCell(FI.GlobalId, Idx).V;
      break;
    }
    case Opcode::StoreA: {
      int64_t Idx = TaintOn ? evalFlat(FI.A).V : RawVal(FI.A);
      if (Idx < 0 ||
          Idx >= static_cast<int64_t>(Img->globalSize(FI.GlobalId))) {
        R.Trap = "array index out of bounds in " +
                 P.function(Site.Func)->name();
        break;
      }
      if constexpr (TaintOn)
        writeGlobal(FI.GlobalId, Idx, evalFlat(FI.B), R);
      else
        writeGlobalRaw(FI.GlobalId, Idx, RawVal(FI.B), R);
      break;
    }
    case Opcode::LoadInd: {
      int64_t G = TaintOn ? evalFlat(FI.A).V : RawVal(FI.A);
      assert(G >= 0 && G < P.numGlobals() && "bad reference value");
      if constexpr (TaintOn)
        RegStack[RegBase + static_cast<size_t>(FI.Dst)] =
            nvmCell(static_cast<int>(G), 0);
      else
        RegStack[RegBase + static_cast<size_t>(FI.Dst)].V =
            nvmCell(static_cast<int>(G), 0).V;
      break;
    }
    case Opcode::StoreInd: {
      int64_t G = TaintOn ? evalFlat(FI.A).V : RawVal(FI.A);
      assert(G >= 0 && G < P.numGlobals() && "bad reference value");
      if constexpr (TaintOn)
        writeGlobal(static_cast<int>(G), 0, evalFlat(FI.B), R);
      else
        writeGlobalRaw(static_cast<int>(G), 0, RawVal(FI.B), R);
      break;
    }
    case Opcode::Input: {
      int64_t V;
      if (Replay) {
        if (ReplayIdx >= Replay->size()) {
          R.Trap = "replay input queue exhausted";
          break;
        }
        const InputEvent &E = (*Replay)[ReplayIdx++];
        if (E.Sensor != FI.SensorId) {
          R.Trap = "replay sensor mismatch";
          break;
        }
        V = E.Value;
      } else {
        V = Sensors->sample(FI.SensorId, Tau);
      }
      InputEvent E;
      E.Sensor = FI.SensorId;
      E.Tau = Tau;
      E.Epoch = Epoch;
      E.Value = V;
      if constexpr (TaintOn) {
        RegStack[RegBase + static_cast<size_t>(FI.Dst)] =
            RtValue(V, Taints.single(E));
      } else {
        RegStack[RegBase + static_cast<size_t>(FI.Dst)].V = V;
      }
      if (Telem)
        Telem->sensorRead(Tau, FI.SensorId, V);
      if (BitVector)
        onInputFlat(FI, Tau);
      if (Cfg.RecordTrace) {
        if (ExecMode == Mode::Atomic)
          PendingInputs.push_back(E);
        else
          Committed.Inputs.push_back(E);
      }
      break;
    }
    case Opcode::Call: {
      // Pc already points at the fall-through instruction: that is the
      // return address, and Code[ReturnPc - 1] recovers this call (its
      // Dst / Label) when the frame returns or a chain is materialized.
      const uint32_t NewBase = static_cast<uint32_t>(RegStack.size());
      RegStack.resize(NewBase + FI.CalleeNumRegs);
      const Operand *Args = Img->args(FI);
      for (uint32_t A = 0; A < FI.ArgsCount; ++A) {
        if constexpr (TaintOn)
          RegStack[NewBase + A] = evalFlat(Args[A]);
        else
          RegStack[NewBase + A].V = RawVal(Args[A]);
      }
      FFrames.push_back(FlatFrame{/*ReturnPc=*/Pc, /*RegBase=*/NewBase});
      Pc = FI.CalleeEntryPc;
      break;
    }
    case Opcode::Ret: {
      FlatFrame F = FFrames.back();
      if constexpr (TaintOn) {
        RtValue V = FI.A.isNone() ? RtValue(0) : evalFlat(FI.A);
        FFrames.pop_back();
        RegStack.resize(F.RegBase);
        if (!FFrames.empty()) {
          Pc = F.ReturnPc;
          const FlatInst &CallI = Code[F.ReturnPc - 1];
          if (CallI.Dst >= 0 && !FI.A.isNone())
            RegStack[FFrames.back().RegBase +
                     static_cast<size_t>(CallI.Dst)] = std::move(V);
        }
      } else {
        int64_t V = FI.A.isNone() ? 0 : RawVal(FI.A);
        FFrames.pop_back();
        RegStack.resize(F.RegBase);
        if (!FFrames.empty()) {
          Pc = F.ReturnPc;
          const FlatInst &CallI = Code[F.ReturnPc - 1];
          if (CallI.Dst >= 0 && !FI.A.isNone())
            RegStack[FFrames.back().RegBase +
                     static_cast<size_t>(CallI.Dst)]
                .V = V;
        }
      }
      break;
    }
    case Opcode::Br:
      Pc = FI.Target;
      break;
    case Opcode::CondBr: {
      int64_t V = TaintOn ? evalFlat(FI.A).V : RawVal(FI.A);
      Pc = V != 0 ? FI.Target : FI.Target2;
      break;
    }
    case Opcode::Fresh:
      break; // Checked at uses.
    case Opcode::Consistent:
      if constexpr (TaintOn) {
        if (Formal)
          Monitor->onConsistentMarker(FI.SetId, FI.Label, Taints,
                                      evalFlat(FI.A).Taint, Tau);
      }
      break;
    case Opcode::AtomicStart:
      enterAtomicFlat(FI, R);
      break;
    case Opcode::AtomicEnd:
      commitAtomic(R);
      break;
    case Opcode::Output:
      outputFlat(FI);
      break;
    case Opcode::Nop:
      break;
    }

    if (SawKindlessOperand) {
      SawKindlessOperand = false;
      if (R.Trap.empty())
        R.Trap = "operand without a kind at " +
                 P.function(Site.Func)->name() + "@" +
                 std::to_string(Site.Label) + " (lowering bug)";
    }
  }

  R.Completed = FFrames.empty() && R.Trap.empty() && !R.Starved;
  R.TraceData = std::move(Committed);
  Committed.clear();
  R.FinalTau = Tau;
  finishOracle(R);

  R.ViolatedFresh = Monitor->runFreshViolation();
  R.ViolatedConsistent = Monitor->runConsistentViolation();
  const auto &AllViolations = Monitor->violations();
  for (size_t I = ViolationsBefore; I < AllViolations.size(); ++I)
    R.Violations.push_back(AllViolations[I]);
  return R;
}

template RunResult Interpreter::runFlatLoop<true>();
template RunResult Interpreter::runFlatLoop<false>();
