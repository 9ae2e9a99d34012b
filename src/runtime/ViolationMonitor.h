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
///    Appendix B): every value carries the span of its inputs' reboot
///    epochs. A fresh use whose value carries an earlier epoch crossed a
///    power failure; a consistent set whose members' inputs span different
///    epochs was split by one. A fresh use whose value is all in the
///    current epoch costs one inline test; a Consistent marker writes its
///    fixed slot and joins its set's.
///
/// A ViolationRecord keeps the numbers its message names; detail()
/// formats the text only when someone reads it.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_RUNTIME_VIOLATIONMONITOR_H
#define OCELOT_RUNTIME_VIOLATIONMONITOR_H

#include "runtime/ExecutableImage.h"
#include "runtime/MonitorPlan.h"
#include "runtime/Value.h"

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
  /// What detail() names besides SetId. FreshBitVec: the label of the
  /// input operation whose bit a power failure cleared. FreshFormal: the
  /// oldest reboot epoch of the value's inputs (EpochA) and the epoch of
  /// the use (EpochB). ConsistentFormal: the oldest (EpochA) and newest
  /// (EpochB) epoch of the set's inputs.
  uint32_t StaleOp = 0;
  uint64_t EpochA = 0, EpochB = 0;

  /// The human-readable explanation, e.g. "use of stale input: operation
  /// @12's bit cleared by a power failure".
  std::string detail() const;
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

  /// Formal freshness check: \p Taint spans the used value's input epochs
  /// and \p Epoch is the current reboot epoch. A value all in the current
  /// epoch passes without a call unless a sink wants the check event.
  void onFreshUseFormal(InstrRef Site, EpochSpan Taint, uint64_t Epoch,
                        uint64_t Tau) {
    if (!Sink && Taint.allIn(Epoch))
      return;
    freshUseFormal(Site, Taint, Epoch, Tau);
  }

  /// Formal consistency check at the execution of the Consistent marker
  /// with image marker ordinal \p MarkerOrd, whose value spans \p Taint.
  void onConsistentMarker(uint32_t MarkerOrd, EpochSpan Taint, uint64_t Tau);

  /// Moves out the current run's violation records (beginRun clears them
  /// anyway, so nothing reads them after the run's epilogue).
  std::vector<ViolationRecord> takeViolations() {
    return std::exchange(Records, {});
  }

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
  /// onFreshUseFormal's full check: records a violation unless every
  /// input is in \p Epoch and reports the check to the sink.
  void freshUseFormal(InstrRef Site, EpochSpan Taint, uint64_t Epoch,
                      uint64_t Tau);

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
  /// The formal consistency records: one slot per image marker ordinal,
  /// so each set's slots are consecutive. A slot holds a record of its
  /// set's current activation iff its Gen equals the set's; starting an
  /// activation bumps the set's Gen, which drops every record at once.
  struct MarkerSlot {
    EpochSpan Taint;
    uint32_t Set = 0; ///< Index into MarkerSets.
    uint64_t Gen = 0;
  };
  struct MarkerSet {
    uint32_t Begin = 0, End = 0; ///< Its slots.
    uint64_t Gen = 0;
  };
  std::vector<MarkerSlot> Slots;
  std::vector<MarkerSet> MarkerSets;
  uint64_t LastGen = 0;
  std::vector<ViolationRecord> Records;
  bool RunFresh = false;
  bool RunConsistent = false;
};

} // namespace ocelot

#endif // OCELOT_RUNTIME_VIOLATIONMONITOR_H
