//===- ViolationMonitor.h - Freshness/consistency violation detection -*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two independent violation detectors, which tests cross-validate:
///
///  * Bit vector (the paper's §7.3 mechanism): one non-volatile bit per
///    static input operation (its ExecutableImage input ordinal), set on
///    input, cleared on power failure. On a use of a fresh
///    variable the dependent sensors' bits must be set; on an input in a
///    consistent set the other executed members' bits must be set.
///
///  * Formal (Definitions 2/3 over the taint-augmented semantics of
///    Appendix B): every value carries the id of its input events (sensor,
///    tau, reboot epoch) in the interpreter's TaintTable. A fresh use
///    whose value carries an event from an earlier epoch crossed a power
///    failure; a consistent set whose members' events span different
///    epochs was split by one.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_RUNTIME_VIOLATIONMONITOR_H
#define OCELOT_RUNTIME_VIOLATIONMONITOR_H

#include "runtime/ExecutableImage.h"
#include "runtime/MonitorPlan.h"
#include "runtime/TaintTable.h"

#include <cassert>
#include <string>
#include <utility>
#include <vector>

namespace ocelot {

class TraceSink;

struct ViolationRecord {
  enum class Kind {
    FreshBitVec,
    ConsistentBitVec,
    FreshFormal,
    ConsistentFormal,
  };
  Kind K;
  InstrRef Site;
  int SetId = -1;
  uint64_t Tau = 0;
  std::string Detail;
};

const char *violationKindName(ViolationRecord::Kind K);

class ViolationMonitor {
public:
  /// \p Img numbers the input operations (the bit positions); it must
  /// outlive the monitor.
  ViolationMonitor(const MonitorPlan &Plan, const ExecutableImage &Img);

  /// Clears per-run state (executed flags, formal set records). Called at
  /// the start of each main() activation.
  void beginRun();

  /// Clears the bit vector (the paper's "On power failure, the bit vector
  /// is cleared").
  void onPowerFailure();

  /// Input operation \p InputOrd executed at \p Site: runs the
  /// consistent-set member checks for the dynamic instance whose absolute
  /// call chain has \p Depth elements, the I-th being \p ChainAt(I) (the
  /// last is \p Site itself and is never asked for), then sets the
  /// operation's bit. Engines read the chain off their frame stacks in
  /// place; an input that ends no member chain costs one span test.
  template <typename ChainFn>
  void onInput(uint32_t InputOrd, InstrRef Site, size_t Depth,
               const ChainFn &ChainAt, uint64_t Tau) {
    assert(InputOrd < NumBits && "input site without an ordinal");
    bool Checked = false, Failed = false;
    for (uint32_t E = EndsBegin[InputOrd]; E < EndsBegin[InputOrd + 1];
         ++E) {
      const MemberRef M = Ends[E];
      const ProvChain &C = Plan.Sets[M.Set].Members[M.Member];
      if (C.size() != Depth)
        continue;
      bool Match = true;
      for (size_t I = 0; Match && I + 1 < Depth; ++I)
        Match = C[I] == ChainAt(I);
      if (!Match)
        continue;
      Checked = true;
      Failed |= memberExecuted(M, Site, Tau);
    }
    finishInput(InputOrd, Site, Checked, Failed, Tau);
  }

  /// About to execute a use of a fresh variable: bit-vector freshness
  /// check of the input ordinals \p InputOrds, in order.
  void onFreshUse(InstrRef Site, std::span<const uint32_t> InputOrds,
                  uint64_t Tau);

  /// Formal freshness check: \p Taint names the used value's input events
  /// in \p Taints and \p Epoch is the current reboot epoch.
  void onFreshUseFormal(InstrRef Site, const TaintTable &Taints,
                        TaintId Taint, uint64_t Epoch, uint64_t Tau);

  /// Formal consistency check at a Consistent marker execution. The
  /// recorded id must stay valid until beginRun (the interpreter compacts
  /// its table only at run start).
  void onConsistentMarker(int SetId, uint32_t MarkerLabel,
                          const TaintTable &Taints, TaintId Taint,
                          uint64_t Tau);

  /// Moves out the current run's violation records (beginRun clears them
  /// anyway, so nothing reads them after the run's epilogue).
  std::vector<ViolationRecord> takeViolations() {
    return std::exchange(Records, {});
  }
  bool sawFreshViolation() const { return FreshViolated; }
  bool sawConsistentViolation() const { return ConsistentViolated; }
  bool sawAny() const { return FreshViolated || ConsistentViolated; }

  /// Per-run flags (reset by beginRun; immune to the record-list cap).
  bool runFreshViolation() const { return RunFresh; }
  bool runConsistentViolation() const { return RunConsistent; }

  const MonitorPlan &plan() const { return Plan; }

  /// Attaches a telemetry sink: every check that runs becomes a
  /// monitor_check event and every recorded violation a violation event
  /// (src/telemetry/TraceSink.h). Null (the default) detaches; detection
  /// behavior is identical either way.
  void setTraceSink(TraceSink *T) { Sink = T; }

private:
  /// A consistent-set member: Plan.Sets[Set].Members[Member].
  struct MemberRef {
    uint32_t Set = 0, Member = 0;
  };

  void record(ViolationRecord R);
  bool bit(uint32_t Ord) const {
    return Ord < NumBits && (Bits[Ord / 64] >> (Ord % 64) & 1);
  }
  /// Member \p M's input executed: starts a new activation of its set if
  /// the member already ran, checks every other executed member's bit,
  /// marks it executed. \returns true when a check failed.
  bool memberExecuted(MemberRef M, InstrRef Site, uint64_t Tau);
  /// onInput's tail: the telemetry event and setting the bit.
  void finishInput(uint32_t InputOrd, InstrRef Site, bool Checked,
                   bool Failed, uint64_t Tau);

  TraceSink *Sink = nullptr;
  MonitorPlan Plan;
  const ExecutableImage &Img;
  /// Non-volatile bit vector: one position per static input operation
  /// (§7.3: "Each sensor operation has a unique position in the bit
  /// vector"), indexed by input ordinal.
  std::vector<uint64_t> Bits;
  uint32_t NumBits = 0;
  /// Per consistent set: each member's input ordinal (the bit checked
  /// when another member executes).
  std::vector<std::vector<uint32_t>> MemberBit;
  /// Members whose chain ends at input ordinal O are
  /// Ends[EndsBegin[O] .. EndsBegin[O + 1]), in (set, member) order.
  std::vector<uint32_t> EndsBegin;
  std::vector<MemberRef> Ends;
  /// Per consistent set: which members executed in the current activation.
  std::vector<std::vector<bool>> MemberExecuted;
  /// A formal per-set record: the taint of the value set \p SetId's
  /// marker \p Label last recorded in the set's current activation.
  struct SetRecord {
    int SetId;
    uint32_t Label;
    TaintId Taint;
  };
  /// Every set's records, sorted by (SetId, Label): the order the
  /// consistency check visits them in (and so which event a Detail
  /// names). A flat vector keeps its capacity across runs, so recording a
  /// marker allocates nothing in steady state.
  std::vector<SetRecord> SetRecords;
  std::vector<ViolationRecord> Records;
  bool FreshViolated = false;
  bool ConsistentViolated = false;
  bool RunFresh = false;
  bool RunConsistent = false;
};

} // namespace ocelot

#endif // OCELOT_RUNTIME_VIOLATIONMONITOR_H
