//===- Interpreter.cpp - Intermittent execution simulator ----------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Engine-independent interpreter state plus the tree-walking reference
/// engine. The threaded engine lives in InterpreterThreaded.cpp; the two
/// must stay observationally identical (ExecImageTest and
/// DifferentialFuzzTest pin this).
///
//===----------------------------------------------------------------------===//

#include "runtime/Interpreter.h"

#include "runtime/ArenaPool.h"
#include "runtime/IntegerOps.h"
#include "telemetry/TraceSink.h"

#include <cassert>

using namespace ocelot;

uint64_t CostModel::costOfOp(Opcode Op) const {
  switch (Op) {
  case Opcode::Input:
    return InputCost;
  case Opcode::Output:
    return OutputCost;
  case Opcode::Call:
  case Opcode::Ret:
    return CallCost;
  case Opcode::AtomicStart:
    return AtomicStartCost;
  case Opcode::AtomicEnd:
    return AtomicCommitCost;
  case Opcode::Fresh:
  case Opcode::Consistent:
  case Opcode::Nop:
    return 0; // Annotation markers are erased in real builds (§6.1).
  default:
    return Default;
  }
}

Interpreter::Interpreter(const Program &P, RunConfig Cfg,
                         const MonitorPlan *Plan,
                         const std::vector<RegionInfo> *Regions,
                         std::shared_ptr<const ExecutableImage> Image)
    : P(P), Cfg(std::move(Cfg)),
      Sensors(this->Cfg.Sensors ? this->Cfg.Sensors
                                : defaultSensorScenario()),
      Regions(Regions),
      Img(Image ? std::move(Image)
                : ExecutableImage::build(P, Regions, Plan)),
      Rand(this->Cfg.Seed) {
  static const MonitorPlan EmptyPlan;
  Monitor =
      std::make_unique<ViolationMonitor>(Plan ? *Plan : EmptyPlan, *Img);
  Monitor->setTraceSink(this->Cfg.Telemetry);
  if (this->Cfg.Plan.isEnergyDriven())
    Energy = std::make_unique<EnergyModel>(
        this->Cfg.Energy, this->Cfg.Seed ^ 0xe4e4f00dULL, this->Cfg.Power);
  if (this->Cfg.MonitorFormal)
    this->Cfg.TrackTaint = true;
  // The oracle scores committed outputs by their fused input taint, so it
  // needs the same taint-augmented semantics as the formal monitors.
  if (this->Cfg.Oracle)
    this->Cfg.TrackTaint = true;
  // Fold the cost switch once: a PC-indexed table replaces per-step
  // CostModel::costOf calls. The default model reuses the image's table.
  if (this->Cfg.Costs == CostModel()) {
    CostTable = Img->defaultCosts().data();
  } else {
    OwnCosts = Img->costTableFor(this->Cfg.Costs);
    CostTable = OwnCosts.data();
  }
  // Borrow the two large per-Simulation buffers from the arena pool when
  // one is configured; resetNvm()/the dispatch loops size them as usual,
  // reusing the pooled capacity.
  if (this->Cfg.Arena) {
    Nvm = this->Cfg.Arena->take();
    RegStack = this->Cfg.Arena->take();
  }
  resetNvm();
}

Interpreter::~Interpreter() {
  if (Cfg.Arena) {
    Cfg.Arena->giveBack(std::move(Nvm));
    Cfg.Arena->giveBack(std::move(RegStack));
  }
}

void Interpreter::resetNvm() {
  // One flat cell array laid out by the image's global table.
  Nvm.assign(Img->nvmCells(), RtValue());
  for (int G = 0; G < P.numGlobals(); ++G) {
    const GlobalVar &GV = P.global(G);
    for (int I = 0; I < GV.Size; ++I)
      nvmCell(G, I) =
          RtValue(I < static_cast<int>(GV.Init.size())
                      ? GV.Init[static_cast<size_t>(I)]
                      : 0);
  }
}

void Interpreter::setReplayInputs(
    std::optional<std::vector<InputEvent>> Events) {
  Replay = std::move(Events);
  ReplayIdx = 0;
}

std::vector<std::vector<int64_t>> Interpreter::nvmSnapshot() const {
  std::vector<std::vector<int64_t>> Snap(
      static_cast<size_t>(P.numGlobals()));
  for (int G = 0; G < P.numGlobals(); ++G) {
    uint32_t Size = Img->globalSize(G);
    Snap[static_cast<size_t>(G)].reserve(Size);
    for (uint32_t I = 0; I < Size; ++I)
      Snap[static_cast<size_t>(G)].push_back(nvmCell(G, I).V);
  }
  return Snap;
}

const Instruction *Interpreter::fetch() const {
  const Frame &F = Frames.back();
  const Function *Fn = P.function(F.Func);
  assert(F.Block < Fn->numBlocks() && "bad block");
  const BasicBlock *BB = Fn->block(F.Block);
  assert(F.Idx < static_cast<int>(BB->size()) && "fell off a block");
  return &BB->instructions()[static_cast<size_t>(F.Idx)];
}

RtValue Interpreter::evalKindless() const {
  assert(false && "evaluated an operand without a kind (lowering bug)");
  // Release builds: surface the lowering bug as a structured trap from the
  // step loop instead of silently yielding 0.
  SawKindlessOperand = true;
  return RtValue(0);
}

RtValue Interpreter::eval(Operand O) const {
  if (O.isImm())
    return RtValue(O.Imm);
  if (O.isReg())
    return Frames.back().Regs[static_cast<size_t>(O.Reg)];
  return evalKindless();
}

const RegionInfo *Interpreter::regionInfo(int RegionId) const {
  if (!Regions)
    return nullptr;
  for (const RegionInfo &R : *Regions)
    if (R.RegionId == RegionId)
      return &R;
  return nullptr;
}

void Interpreter::writeGlobal(int G, int64_t Index, RtValue V, RunResult &R) {
  assert(Index >= 0 &&
         Index < static_cast<int64_t>(Img->globalSize(G)));
  if (ExecMode == Mode::Atomic) {
    if (Undo.logIfFirst(G, Index, nvmCell(G, Index))) {
      ++R.UndoLogEntries;
      R.OnCycles += Cfg.Costs.UndoLogEntryCost;
      LifetimeOn += Cfg.Costs.UndoLogEntryCost;
      Tau += Cfg.Costs.UndoLogEntryCost;
    }
  }
  nvmCell(G, Index) = V;
}

void Interpreter::enterAtomic(const Instruction &I, RunResult &R) {
  if (ExecMode == Mode::Atomic) {
    ++Natom; // Atom-Start-Inner: flattening counter only.
    return;
  }
  // Atom-Start-Outer: snapshot volatile state positioned after the start.
  // Saving the volatile context costs like a JIT checkpoint (§6.3).
  uint64_t SaveCost = Cfg.Costs.RegionEntryPerFrame * Frames.size();
  R.OnCycles += SaveCost;
  LifetimeOn += SaveCost;
  Tau += SaveCost;
  if (Energy)
    Energy->consume(SaveCost);
  ExecMode = Mode::Atomic;
  CurrentRegion = I.RegionId;
  Natom = 0;
  AbortsThisRegion = 0;
  AtomicSnapshot = Frames;
  Undo.clear();
  if (Cfg.StaticOmega) {
    if (const RegionInfo *Info = regionInfo(I.RegionId)) {
      for (int G : Info->Omega) {
        uint32_t Size = Img->globalSize(G);
        for (uint32_t Idx = 0; Idx < Size; ++Idx) {
          if (Undo.logIfFirst(G, static_cast<int64_t>(Idx),
                              nvmCell(G, Idx))) {
            ++R.UndoLogEntries;
            R.OnCycles += Cfg.Costs.AtomicOmegaPerCell;
            LifetimeOn += Cfg.Costs.AtomicOmegaPerCell;
            Tau += Cfg.Costs.AtomicOmegaPerCell;
          }
        }
      }
    }
  }
  if (TraceSink *T = Cfg.Telemetry)
    T->regionEnter(Tau, CurrentRegion);
}

void Interpreter::commitAtomic(RunResult &R) {
  if (Natom > 0) {
    --Natom; // Atom-End-Inner.
    return;
  }
  if (TraceSink *T = Cfg.Telemetry)
    T->regionCommit(Tau, CurrentRegion, Undo.size());
  // Atom-End-Outer: effects become visible; pending events commit.
  for (InputEvent &E : PendingInputs)
    Committed.Inputs.push_back(E);
  for (OutputEvent &E : PendingOutputs)
    Committed.Outputs.push_back(E);
  for (OracleRecord &O : PendingOracle)
    CommittedOracle.push_back(std::move(O));
  PendingInputs.clear();
  PendingOutputs.clear();
  PendingOracle.clear();
  Undo.clear();
  ExecMode = Mode::Jit;
  CurrentRegion = -1;
  AbortsThisRegion = 0;
  ++R.AtomicCommits;
}

void Interpreter::recordOracleOutput(OutputKind Kind,
                                     std::vector<InputEvent> &&Inputs) {
  OracleRecord Rec;
  Rec.Kind = Kind;
  Rec.Tau = Tau;
  Rec.Epoch = Epoch;
  Rec.Inputs = std::move(Inputs);
  Rec.Verdict = classifyOracleInputs(Rec.Inputs, Epoch);
  if (TraceSink *T = Cfg.Telemetry)
    T->oracleVerdict(Tau, static_cast<int>(Rec.Verdict),
                     Rec.Inputs.size(), oracleVerdictName(Rec.Verdict));
  if (ExecMode == Mode::Atomic)
    PendingOracle.push_back(std::move(Rec));
  else
    CommittedOracle.push_back(std::move(Rec));
}

void Interpreter::finishOracle(RunResult &R) {
  if (!Cfg.Oracle)
    return;
  for (const OracleRecord &Rec : CommittedOracle) {
    switch (Rec.Verdict) {
    case OracleVerdict::Fresh:
      ++R.OracleFresh;
      break;
    case OracleVerdict::Stale:
      ++R.OracleStale;
      break;
    case OracleVerdict::CrossEpoch:
      ++R.OracleCrossEpoch;
      break;
    }
  }
  R.OracleRecords = std::move(CommittedOracle);
  CommittedOracle.clear();
}

void Interpreter::rebootCommon(RunResult &R, uint64_t TotalRegs) {
  ++R.Reboots;
  ++Epoch;
  ++Committed.Reboots;
  if (TraceSink *T = Cfg.Telemetry)
    T->reboot(Tau, Epoch);

  if (ExecMode == Mode::Jit) {
    // JIT-LowPower: the ISR checkpoints volatile state into NVM within the
    // raised-threshold reserve (§6.3).
    uint64_t CkptCost =
        Cfg.Costs.CheckpointBase + Cfg.Costs.CheckpointPerReg * TotalRegs;
    R.OnCycles += CkptCost;
    LifetimeOn += CkptCost;
    Tau += CkptCost;
    ++R.Checkpoints;
    if (TraceSink *T = Cfg.Telemetry)
      T->checkpoint(Tau, TotalRegs);
  }
  // Atom-LowPower: shut down immediately; nothing saved.

  uint64_t Off = Energy ? Energy->recharge(Tau) : Cfg.Plan.drawOffTime(Rand);
  if (TraceSink *T = Cfg.Telemetry)
    T->energyRecharge(Tau, Off);
  Tau += Off;
  R.OffCycles += Off;
  Monitor->onPowerFailure();
}

void Interpreter::powerFail(RunResult &R) {
  uint64_t TotalRegs = 0;
  for (const Frame &F : Frames)
    TotalRegs += F.Regs.size();
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
    Frames = AtomicSnapshot;
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
      Frames.clear();
    }
  } else {
    // JIT-Reboot: restore volatile state (identity here; costed).
    uint64_t RestCost =
        Cfg.Costs.RestoreBase + Cfg.Costs.RestorePerReg * TotalRegs;
    R.OnCycles += RestCost;
    LifetimeOn += RestCost;
    Tau += RestCost;
  }
}

bool Interpreter::checkEnergyAndPlan(uint64_t Cost) {
  if (Energy) {
    if (Energy->consume(Cost))
      return true;
    return false;
  }
  if (Cfg.Plan.kind() == FailurePlan::Kind::Periodic)
    return Cfg.Plan.firesAfterCycles(LifetimeOn);
  return false;
}

RunResult Interpreter::runOnce() {
  // Only NVM outlives a run: registers, the undo log, the region snapshot
  // and the monitor's set records are all reset before they are read
  // again, so NVM is the whole root set of the taint table here.
  if (Cfg.TrackTaint)
    Taints.compactIfGrown(Nvm);
  return Cfg.Dispatch == DispatchEngine::Tree ? runOnceTree()
                                              : runOnceThreaded();
}

RunResult Interpreter::runOnceTree() {
  RunResult R;
  Cfg.Plan.resetRun();
  Monitor->beginRun();

  Frames.clear();
  Frame Main;
  Main.Func = P.mainFunction();
  Main.Regs.resize(
      static_cast<size_t>(P.function(P.mainFunction())->numRegs()));
  Frames.push_back(std::move(Main));
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

  while (!Frames.empty() && !R.Starved && R.Trap.empty()) {
    if (R.OnCycles > Cfg.MaxOnCyclesPerRun) {
      R.Trap = "on-cycle budget exceeded";
      break;
    }
    const Instruction *I = fetch();
    Frame &Top = Frames.back();
    InstrRef Site(Top.Func, I->Label);

    // Failure injection before the instruction (pathological / random).
    if (Cfg.Plan.firesBefore(Site, Rand)) {
      powerFail(R);
      continue;
    }
    uint64_t Cost = Cfg.Costs.costOf(*I);
    if (checkEnergyAndPlan(Cost)) {
      ++ConsecutiveFailures;
      if (ConsecutiveFailures > Cfg.MaxAbortsPerRegion) {
        R.Starved = true;
        break;
      }
      powerFail(R);
      continue;
    }
    ConsecutiveFailures = 0;
    R.OnCycles += Cost;
    LifetimeOn += Cost;
    Tau += Cost;
    ++R.Steps;

    // Freshness checks fire when a use of a fresh variable executes.
    if (Cfg.MonitorBitVector) {
      auto It = Monitor->plan().UseChecks.find(Site);
      if (It != Monitor->plan().UseChecks.end()) {
        std::vector<uint32_t> Ords;
        for (const InstrRef &In : It->second)
          Ords.push_back(Img->inputOrdinal(In));
        Monitor->onFreshUse(Site, Ords, Tau);
      }
    }
    if (Cfg.MonitorFormal) {
      auto It = Monitor->plan().UseRegs.find(Site);
      if (It != Monitor->plan().UseRegs.end())
        for (int Reg : It->second)
          Monitor->onFreshUseFormal(
              Site, Taints, Top.Regs[static_cast<size_t>(Reg)].Taint, Epoch,
              Tau);
    }

    ++Frames.back().Idx; // Advance before executing (branches overwrite).

    switch (I->Op) {
    case Opcode::Const:
      Frames.back().Regs[static_cast<size_t>(I->Dst)] = RtValue(I->A.Imm);
      break;
    case Opcode::Mov:
      Frames.back().Regs[static_cast<size_t>(I->Dst)] = eval(I->A);
      break;
    case Opcode::Un: {
      RtValue A = eval(I->A);
      Frames.back().Regs[static_cast<size_t>(I->Dst)] =
          RtValue(unEval(I->UnKind, A.V), A.Taint);
      break;
    }
    case Opcode::Bin: {
      RtValue A = eval(I->A);
      RtValue B = eval(I->B);
      int64_t V = 0;
      if (const char *Trap = binEval(I->BinKind, A.V, B.V, V)) {
        R.Trap = std::string(Trap) + " at " + P.function(Site.Func)->name() +
                 "@" + std::to_string(Site.Label);
        break;
      }
      RtValue Out(V);
      if (Cfg.TrackTaint)
        Out.Taint = Taints.merge(A.Taint, B.Taint);
      Frames.back().Regs[static_cast<size_t>(I->Dst)] = Out;
      break;
    }
    case Opcode::LoadG:
      Frames.back().Regs[static_cast<size_t>(I->Dst)] =
          nvmCell(I->GlobalId, 0);
      break;
    case Opcode::StoreG:
      writeGlobal(I->GlobalId, 0, eval(I->A), R);
      break;
    case Opcode::LoadA: {
      int64_t Idx = eval(I->A).V;
      if (Idx < 0 ||
          Idx >= static_cast<int64_t>(Img->globalSize(I->GlobalId))) {
        R.Trap = "array index out of bounds in " +
                 P.function(Site.Func)->name();
        break;
      }
      Frames.back().Regs[static_cast<size_t>(I->Dst)] =
          nvmCell(I->GlobalId, Idx);
      break;
    }
    case Opcode::StoreA: {
      int64_t Idx = eval(I->A).V;
      if (Idx < 0 ||
          Idx >= static_cast<int64_t>(Img->globalSize(I->GlobalId))) {
        R.Trap = "array index out of bounds in " +
                 P.function(Site.Func)->name();
        break;
      }
      writeGlobal(I->GlobalId, Idx, eval(I->B), R);
      break;
    }
    case Opcode::LoadInd: {
      int64_t G = eval(I->A).V;
      assert(G >= 0 && G < P.numGlobals() && "bad reference value");
      Frames.back().Regs[static_cast<size_t>(I->Dst)] =
          nvmCell(static_cast<int>(G), 0);
      break;
    }
    case Opcode::StoreInd: {
      int64_t G = eval(I->A).V;
      assert(G >= 0 && G < P.numGlobals() && "bad reference value");
      writeGlobal(static_cast<int>(G), 0, eval(I->B), R);
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
        if (E.Sensor != I->SensorId) {
          R.Trap = "replay sensor mismatch";
          break;
        }
        V = E.Value;
      } else {
        V = Sensors->sample(I->SensorId, Tau);
      }
      InputEvent E;
      E.Sensor = I->SensorId;
      E.Tau = Tau;
      E.Epoch = Epoch;
      E.Value = V;
      RtValue Out(V);
      if (Cfg.TrackTaint)
        Out.Taint = Taints.single(E);
      Frames.back().Regs[static_cast<size_t>(I->Dst)] = Out;
      if (TraceSink *T = Cfg.Telemetry)
        T->sensorRead(Tau, I->SensorId, V);
      if (Cfg.MonitorBitVector)
        // Chain element K < depth-1 is the call site that created frame
        // K+1, in the caller's function.
        Monitor->onInput(
            Img->inputOrdinal(Site), Site, Frames.size(),
            [&](size_t K) {
              return InstrRef(Frames[K].Func, Frames[K + 1].CallSiteLabel);
            },
            Tau);
      if (Cfg.RecordTrace) {
        if (ExecMode == Mode::Atomic)
          PendingInputs.push_back(E);
        else
          Committed.Inputs.push_back(E);
      }
      break;
    }
    case Opcode::Call: {
      const Function *Callee = P.function(I->Callee);
      Frame NewFrame;
      NewFrame.Func = I->Callee;
      NewFrame.Regs.resize(static_cast<size_t>(Callee->numRegs()));
      for (size_t A = 0; A < I->Args.size(); ++A)
        NewFrame.Regs[A] = eval(I->Args[A]);
      NewFrame.RetDst = I->Dst;
      NewFrame.CallSiteLabel = I->Label;
      Frames.push_back(std::move(NewFrame));
      break;
    }
    case Opcode::Ret: {
      RtValue V = I->A.isNone() ? RtValue(0) : eval(I->A);
      int RetDst = Frames.back().RetDst;
      Frames.pop_back();
      if (!Frames.empty() && RetDst >= 0 && !I->A.isNone())
        Frames.back().Regs[static_cast<size_t>(RetDst)] = std::move(V);
      break;
    }
    case Opcode::Br:
      Frames.back().Block = I->Target;
      Frames.back().Idx = 0;
      break;
    case Opcode::CondBr: {
      int Target = eval(I->A).V != 0 ? I->Target : I->Target2;
      Frames.back().Block = Target;
      Frames.back().Idx = 0;
      break;
    }
    case Opcode::Fresh:
      break; // Checked at uses.
    case Opcode::Consistent:
      if (Cfg.MonitorFormal)
        Monitor->onConsistentMarker(I->SetId, I->Label, Taints,
                                    eval(I->A).Taint, Tau);
      break;
    case Opcode::AtomicStart:
      enterAtomic(*I, R);
      break;
    case Opcode::AtomicEnd:
      commitAtomic(R);
      break;
    case Opcode::Output: {
      if (!Cfg.RecordTrace && !Cfg.Oracle) {
        // Args are still evaluated (same trap conversion for kind-less
        // operands), but the event is never materialized.
        for (const Operand &A : I->Args)
          (void)eval(A).V;
        break;
      }
      OutputEvent E;
      E.Kind = I->OutKind;
      E.Tau = Tau;
      std::vector<InputEvent> Fused;
      for (const Operand &A : I->Args) {
        const RtValue V = eval(A);
        E.Args.push_back(V.V);
        if (Cfg.Oracle)
          Taints.appendTo(V.Taint, Fused);
      }
      if (Cfg.Oracle)
        recordOracleOutput(E.Kind, std::move(Fused));
      if (Cfg.RecordTrace) {
        if (ExecMode == Mode::Atomic)
          PendingOutputs.push_back(E);
        else
          Committed.Outputs.push_back(std::move(E));
      }
      break;
    }
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

  R.Completed = Frames.empty() && R.Trap.empty() && !R.Starved;
  R.TraceData = Committed;
  Committed.clear();
  R.FinalTau = Tau;
  finishOracle(R);

  R.ViolatedFresh = Monitor->runFreshViolation();
  R.ViolatedConsistent = Monitor->runConsistentViolation();
  R.Violations = Monitor->takeViolations();
  return R;
}

bool ocelot::replayRefines(const Program &P, const MonitorPlan *Plan,
                           const Trace &T, int NumRuns,
                           const std::vector<std::vector<int64_t>> &FinalNvm,
                           std::string &Why) {
  RunConfig Cfg;
  Cfg.RecordTrace = true;
  Interpreter I(P, Cfg, Plan, nullptr);
  I.setReplayInputs(T.Inputs);

  std::vector<OutputEvent> ReplayOutputs;
  for (int Run = 0; Run < NumRuns; ++Run) {
    RunResult R = I.runOnce();
    if (!R.Completed) {
      Why = "replay run did not complete: " +
            (R.Trap.empty() ? std::string("starved") : R.Trap);
      return false;
    }
    for (const OutputEvent &E : R.TraceData.Outputs)
      ReplayOutputs.push_back(E);
  }
  if (I.replayRemaining() != 0) {
    Why = "replay consumed fewer inputs than the committed trace (" +
          std::to_string(I.replayRemaining()) + " left)";
    return false;
  }

  if (ReplayOutputs.size() != T.Outputs.size()) {
    Why = "output count mismatch: replay " +
          std::to_string(ReplayOutputs.size()) + " vs committed " +
          std::to_string(T.Outputs.size());
    return false;
  }
  for (size_t Idx = 0; Idx < ReplayOutputs.size(); ++Idx) {
    if (!ReplayOutputs[Idx].sameContent(T.Outputs[Idx])) {
      Why = "output " + std::to_string(Idx) + " diverged";
      return false;
    }
  }
  std::vector<std::vector<int64_t>> Snap = I.nvmSnapshot();
  if (Snap != FinalNvm) {
    Why = "final non-volatile memory diverged";
    return false;
  }
  return true;
}
