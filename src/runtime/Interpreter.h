//===- Interpreter.h - Intermittent execution simulator ---------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes Ocelot IR under the paper's JIT + Atomics execution model
/// (Appendix H):
///
///  * Non-volatile memory (globals) persists across power failures;
///    volatile state (the frame stack with virtual registers) is saved by a
///    JIT checkpoint when the comparator fires, or restored to the region
///    entry snapshot with the undo log applied when power fails inside an
///    atomic region (rules JIT-LowPower / Atom-LowPower / *-Reboot).
///  * Logical time tau advances with each instruction's cycle cost and by
///    the recharge duration across each reboot — the "pick(n)" that makes
///    stale/inconsistent inputs observable.
///  * Nested atomic regions flatten via the natom counter
///    (Atom-Start-Inner / Atom-End-Inner).
///  * Optional dynamic taint (Appendix B) feeds the formal violation
///    checker; the bit-vector detector (§7.3) runs independently.
///
/// Two dispatch engines implement these semantics and are pinned to
/// bitwise-identical results by differential tests (ExecImageTest,
/// DifferentialFuzzTest):
///
///  * Threaded (the default, and the only production loop) —
///    computed-goto direct-threaded dispatch (with a portable switch
///    fallback) over the artifact's `ExecutableImage`: one contiguous
///    instruction array, pre-resolved branch/call targets, a folded cost
///    table, dense monitor/region side tables, and the ThreadedOp view in
///    which a build-time peephole pass fused hot adjacent opcode pairs
///    into superinstructions. Frames shrink to {ReturnPc, RegBase} over
///    one shared register stack. See InterpreterThreaded.cpp.
///  * Tree — the original tree-walking engine chasing
///    Program→Function→Block→Instruction pointers. Retained as the
///    reference semantics for differential tests and as the baseline for
///    the steps-per-second report (bench/micro_runtime --json).
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_RUNTIME_INTERPRETER_H
#define OCELOT_RUNTIME_INTERPRETER_H

#include "analysis/WarAnalysis.h"
#include "fusion/FusionOracle.h"
#include "ir/Program.h"
#include "runtime/CostModel.h"
#include "runtime/EnergyModel.h"
#include "runtime/ExecutableImage.h"
#include "sensors/SensorScenario.h"
#include "runtime/FailurePlan.h"
#include "runtime/MonitorPlan.h"
#include "runtime/Trace.h"
#include "runtime/UndoLog.h"
#include "runtime/ViolationMonitor.h"

#include <memory>
#include <optional>

namespace ocelot {

class PowerSource;
class TraceSink;
struct PcProfile;

/// Which dispatch loop executes the program. Both implement the same
/// semantics; Threaded is strictly an acceleration of Tree.
enum class DispatchEngine {
  Tree,     ///< Original pointer-chasing walk of the Program (reference).
  Threaded, ///< Computed-goto dispatch over the ExecutableImage (default).
};

/// Per-run on-cycle budget: a run that has not finished after this many
/// on-cycles traps ("on-cycle budget exceeded") instead of spinning.
inline constexpr uint64_t RunOnCycleBudget = 50'000'000;

struct RunConfig {
  FailurePlan Plan = FailurePlan::none();
  EnergyConfig Energy;
  /// Harvesting environment for energy-driven plans (src/power/): decides
  /// refill targets and off-times at each reboot. Null selects the
  /// legacy-jitter behavior, preserving the pre-subsystem recharge
  /// sequence bit-for-bit. Sources are immutable, so one instance may be
  /// shared by any number of concurrent simulations.
  std::shared_ptr<const PowerSource> Power;
  /// The sensed world (src/sensors/): one pure-function-of-τ channel per
  /// sensor id. Null selects `defaultSensorScenario()` (per-id seeded
  /// noise), preserving the pre-subsystem unconfigured behavior
  /// bit-for-bit. Scenarios are immutable, so one instance may be shared
  /// by any number of concurrent simulations.
  std::shared_ptr<const SensorScenario> Sensors;
  uint64_t Seed = 1;
  DispatchEngine Dispatch = DispatchEngine::Threaded;
  bool MonitorBitVector = false;
  bool MonitorFormal = false; ///< Turns taint tracking on.
  /// Input-epoch consistency oracle (src/fusion/FusionOracle.h): score
  /// every committed output against the reboot epochs of the inputs fused
  /// into it, independent of the monitors' enforcement. Turns taint
  /// tracking on; verdicts land in RunResult::OracleRecords and are
  /// byte-identical across both engines.
  bool Oracle = false;
  bool StaticOmega = false;   ///< Back up omega at region entry instead of
                              ///< first-write logging.
  bool RecordTrace = false;
  uint64_t MaxAbortsPerRegion = 1000; ///< Starvation detector (§5.3).
  /// Optional structured run tracing (src/telemetry/TraceSink.h): when
  /// non-null the engines and the violation monitor record reboot /
  /// checkpoint / region / monitor / sensor / energy events with τ
  /// timestamps. Null (the default) costs one predictable branch per hook
  /// site and nothing on the threaded Hot path (a traced run takes the
  /// non-Hot loop); results are bitwise identical either way.
  TraceSink *Telemetry = nullptr;
  /// Optional per-PC / per-opcode-pair execution profile
  /// (src/telemetry/Profile.h), filled by the threaded engine.
  /// Callers size it via PcProfile::prepare(image size, NumOpcodes). Same
  /// cost discipline as Telemetry; results are unaffected.
  PcProfile *Profile = nullptr;
};

/// The outcome of one main() activation.
struct RunResult {
  bool Completed = false;
  bool Starved = false; ///< An atomic region could not complete on the
                        ///< available energy (region too large, §5.3).
  std::string Trap;     ///< Non-empty on runtime error (bounds, div by 0).
  uint64_t OnCycles = 0;
  uint64_t OffCycles = 0;
  uint64_t Steps = 0; ///< Instructions executed (throughput accounting).
  uint64_t Reboots = 0;
  uint64_t Checkpoints = 0;
  uint64_t UndoLogEntries = 0;
  uint64_t AtomicCommits = 0;
  uint64_t AtomicAborts = 0;
  bool ViolatedFresh = false;
  bool ViolatedConsistent = false;
  std::vector<ViolationRecord> Violations;
  Trace TraceData;
  uint64_t FinalTau = 0;
  /// Oracle scoring of every committed output (RunConfig::Oracle; empty
  /// otherwise), in commit order with canonical input sets.
  std::vector<OracleRecord> OracleRecords;
  uint64_t OracleFresh = 0;      ///< Outputs scored OracleVerdict::Fresh.
  uint64_t OracleStale = 0;      ///< Outputs scored OracleVerdict::Stale.
  uint64_t OracleCrossEpoch = 0; ///< Outputs scored CrossEpoch.
};

class Interpreter {
public:
  /// \p Plan and \p Regions may be null/empty for programs without
  /// annotations. Inputs are read from `Cfg.Sensors` (null = the default
  /// noise scenario). NVM, tau, the reboot epoch and the energy store
  /// persist across runOnce() calls, as on a real device.
  ///
  /// \p Image is the precomputed execution form; pass the artifact's so N
  /// simulations share one image. When null, the interpreter builds its
  /// own (callers that only have a raw Program, e.g. the refinement
  /// replay).
  Interpreter(const Program &P, RunConfig Cfg,
              const MonitorPlan *Plan = nullptr,
              const std::vector<RegionInfo> *Regions = nullptr,
              std::shared_ptr<const ExecutableImage> Image = nullptr);

  /// Executes one activation of main() to completion (or abort).
  RunResult runOnce();

  /// Re-initializes NVM from the program's initializers (fresh device).
  void resetNvm();

  /// Feeds inputs from \p Events instead of the sensor scenario (in
  /// order); used by the refinement replay. Pass std::nullopt to return
  /// to the scenario.
  void setReplayInputs(std::optional<std::vector<InputEvent>> Events);

  /// Inputs left in the replay queue (0 when not replaying).
  size_t replayRemaining() const {
    return Replay ? Replay->size() - ReplayIdx : 0;
  }

  /// Plain-value NVM snapshot for refinement comparison.
  std::vector<std::vector<int64_t>> nvmSnapshot() const;

  uint64_t tau() const { return Tau; }
  uint64_t epoch() const { return Epoch; }
  const ViolationMonitor &monitor() const { return *Monitor; }
  const ExecutableImage &image() const { return *Img; }

private:
  // -- Tree engine (reference semantics) ---------------------------------
  struct Frame {
    int Func = -1;
    int Block = 0;
    int Idx = 0;
    std::vector<RtValue> Regs;
    int RetDst = -1;
    uint32_t CallSiteLabel = 0; ///< Label of the call in the caller.
  };

  // -- Threaded engine (PC-indexed dispatch over the image) ---------------
  /// A call frame over the image: where to resume in the caller and where
  /// this frame's registers start on the shared register stack. Everything
  /// else (function id, call-site label, return destination) is
  /// recomputed from the image: the call instruction sits at ReturnPc - 1.
  struct FlatFrame {
    uint32_t ReturnPc = 0;
    uint32_t RegBase = 0;
  };
  /// Region-entry snapshot of the threaded engine's volatile state.
  struct FlatSnapshot {
    std::vector<FlatFrame> Frames;
    std::vector<RtValue> Regs;
    uint32_t Pc = 0;
  };

  enum class Mode { Jit, Atomic };

  RunResult runOnceTree();
  RunResult runOnceThreaded();
  /// The threaded dispatch loop (InterpreterThreaded.cpp): computed-goto
  /// (or switch-fallback) dispatch over the image's ThreadedOp view. The
  /// TaintOn instantiation carries an EpochSpan next to every payload and
  /// joins spans; taint-off, values move as raw int64 payloads, legal
  /// because with taint off every span in registers and NVM is the empty
  /// one by construction. The Hot (taint-off) instantiation additionally
  /// assumes no failure plan, no energy model, no monitors and no
  /// observers (the steady-state throughput configuration), dropping the
  /// per-step failure, energy and monitor checks the other two perform.
  template <bool Hot, bool TaintOn> RunResult runThreadedLoop();

  const Instruction *fetch() const;
  RtValue eval(Operand O) const;     ///< Tree engine operand read.
  RtValue evalFlat(Operand O) const; ///< Threaded engine operand read.
  /// Both engines: a kind-less operand reaching eval is a lowering bug —
  /// assert in debug; in release the step loop turns it into a trap
  /// instead of silently yielding 0.
  RtValue evalKindless() const;
  void powerFail(RunResult &R);
  void powerFailFlat(RunResult &R);
  /// Engine-independent reboot core: charges the JIT checkpoint, draws the
  /// off time (folded into R.OffCycles and tau), clears the monitor bit
  /// vector. With taint tracked, a reboot that would take the epoch past
  /// EpochSpan's 32-bit range traps instead.
  void rebootCommon(RunResult &R, uint64_t TotalRegs);
  void enterAtomic(const Instruction &I, RunResult &R);
  void enterAtomicFlat(const FlatInst &I, RunResult &R);
  void commitAtomic(RunResult &R);
  void writeGlobal(int G, int64_t Index, RtValue V, RunResult &R);
  /// Threaded engine: executes Output \p FI at the member tau — evaluates
  /// its arguments and, under RecordTrace or Oracle, records the event
  /// (pending inside a region) and scores it. Out of line so the dispatch
  /// loop never holds an OutputEvent across a computed goto.
  void outputFlat(const FlatInst &FI);
  /// Threaded engine: the bit-vector monitor's input hook for \p FI,
  /// reading the call chain off the flat frame stack in place.
  void onInputFlat(const FlatInst &FI, uint64_t Tau);
  const RegionInfo *regionInfo(int RegionId) const;

  /// Flat NVM addressing: cell \p Index of global \p G via the image's
  /// layout table.
  RtValue &nvmCell(int G, int64_t Index) {
    return Nvm[Img->globalBase(G) + static_cast<size_t>(Index)];
  }
  const RtValue &nvmCell(int G, int64_t Index) const {
    return Nvm[Img->globalBase(G) + static_cast<size_t>(Index)];
  }

  const Program &P;
  RunConfig Cfg;
  /// Taint is on iff a reader of it is: the formal monitor or the oracle.
  /// Fixed at construction.
  bool TrackTaint = false;
  /// The sensed world; never null (Cfg.Sensors or the default scenario).
  /// Shared and immutable — reads are thread-safe pure functions of τ.
  std::shared_ptr<const SensorScenario> Sensors;
  const std::vector<RegionInfo> *Regions;
  std::shared_ptr<const ExecutableImage> Img;

  // Non-volatile state (persists across runs and failures). One flat cell
  // array laid out by the image's global table; both engines address it
  // through nvmCell().
  std::vector<RtValue> Nvm;
  uint64_t Tau = 0;
  uint64_t Epoch = 0;
  std::unique_ptr<ViolationMonitor> Monitor;
  std::unique_ptr<EnergyModel> Energy;
  Rng Rand;

  // Volatile execution state (tree engine).
  std::vector<Frame> Frames;
  std::vector<Frame> AtomicSnapshot;
  // Volatile execution state (threaded engine).
  std::vector<FlatFrame> FFrames;
  std::vector<RtValue> RegStack;
  uint32_t Pc = 0;
  FlatSnapshot FlatAtomicSnapshot;

  Mode ExecMode = Mode::Jit;
  // Atomic context (kappa_atom): undo log + nesting counter.
  UndoLog Undo;
  int Natom = 0;
  int CurrentRegion = -1;
  uint64_t AbortsThisRegion = 0;
  /// Set by eval/evalFlat on a kind-less operand (release builds); the
  /// step loops convert it into a structured trap.
  mutable bool SawKindlessOperand = false;

  // Trace buffering: committed vs pending (inside an open region).
  Trace Committed;
  std::vector<InputEvent> PendingInputs;
  std::vector<OutputEvent> PendingOutputs;

  /// Oracle records follow the exact pending/committed discipline of
  /// outputs: buffered while a region is open, spliced on commit,
  /// discarded on abort. Classification happens at emission — sound
  /// because a record only survives if its region commits in the same
  /// epoch it executed in (a power failure inside the region discards
  /// the pending records with the outputs).
  std::vector<OracleRecord> CommittedOracle;
  std::vector<OracleRecord> PendingOracle;

  /// Scores one output whose arguments' inputs span \p Inputs: classifies
  /// it against the current epoch, buffers the record per the
  /// pending/committed discipline, and emits a telemetry event.
  void recordOracleOutput(OutputKind Kind, EpochSpan Inputs);

  /// Moves the run's committed oracle records and verdict counts into
  /// \p R (both engines' epilogues).
  void finishOracle(RunResult &R);

  std::optional<std::vector<InputEvent>> Replay;
  size_t ReplayIdx = 0;
};

/// Replays \p T (the committed trace of \p NumRuns main() activations on a
/// fresh device) against a continuous execution of \p P and compares
/// outputs and the final NVM against \p FinalNvm. \returns true when the
/// intermittent execution refines a continuous one; otherwise \p Why says
/// what diverged.
bool replayRefines(const Program &P, const MonitorPlan *Plan, const Trace &T,
                   int NumRuns,
                   const std::vector<std::vector<int64_t>> &FinalNvm,
                   std::string &Why);

} // namespace ocelot

#endif // OCELOT_RUNTIME_INTERPRETER_H
