//===- ViolationMonitor.cpp - Freshness/consistency violation detection --------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ViolationMonitor.h"

#include "telemetry/TraceSink.h"

#include <algorithm>

using namespace ocelot;

const char *ocelot::violationKindName(ViolationRecord::Kind K) {
  switch (K) {
  case ViolationRecord::Kind::FreshBitVec:
    return "fresh(bitvec)";
  case ViolationRecord::Kind::ConsistentBitVec:
    return "consistent(bitvec)";
  case ViolationRecord::Kind::FreshFormal:
    return "fresh(formal)";
  case ViolationRecord::Kind::ConsistentFormal:
    return "consistent(formal)";
  }
  return "?";
}

std::string ViolationRecord::detail() const {
  switch (K) {
  case Kind::FreshBitVec:
    return "use of stale input: operation @" + std::to_string(StaleOp) +
           "'s bit cleared by a power failure";
  case Kind::ConsistentBitVec:
    return "input collected after a power failure split consistent set " +
           std::to_string(SetId);
  case Kind::FreshFormal:
    return "value depends on an input collected in reboot epoch " +
           std::to_string(EpochA) + " but is used in epoch " +
           std::to_string(EpochB);
  case Kind::ConsistentFormal:
    return "consistent set " + std::to_string(SetId) +
           " holds inputs from reboot epochs " + std::to_string(EpochA) +
           " and " + std::to_string(EpochB);
  }
  return "";
}

ViolationMonitor::ViolationMonitor(const MonitorPlan &Plan,
                                   const ExecutableImage &Img)
    : Plan(Plan), Img(Img), NumBits(Img.numInputOrdinals()) {
  Bits.assign((NumBits + 63) / 64, 0);
  MemberExecuted.resize(Plan.Sets.size());
  MemberBit.resize(Plan.Sets.size());
  // Bucket every member under the ordinal its chain ends at (counting
  // sort, so each bucket keeps (set, member) order).
  EndsBegin.assign(NumBits + 1, 0);
  for (size_t SI = 0; SI < Plan.Sets.size(); ++SI) {
    const ConsistentSetPlan &SP = Plan.Sets[SI];
    MemberExecuted[SI].assign(SP.Members.size(), false);
    for (const ProvChain &C : SP.Members) {
      uint32_t Ord = C.empty() ? ExecutableImage::NoInputOrdinal
                               : Img.inputOrdinal(C.back());
      MemberBit[SI].push_back(Ord);
      if (Ord < NumBits)
        ++EndsBegin[Ord + 1];
    }
  }
  for (uint32_t O = 0; O < NumBits; ++O)
    EndsBegin[O + 1] += EndsBegin[O];
  Ends.resize(EndsBegin[NumBits]);
  std::vector<uint32_t> Fill(EndsBegin.begin(), EndsBegin.end() - 1);
  for (size_t SI = 0; SI < MemberBit.size(); ++SI)
    for (size_t MI = 0; MI < MemberBit[SI].size(); ++MI)
      if (MemberBit[SI][MI] < NumBits)
        Ends[Fill[MemberBit[SI][MI]]++] =
            MemberRef{static_cast<uint32_t>(SI), static_cast<uint32_t>(MI)};
  // One formal record slot per marker ordinal; the image sorts markers by
  // set, so each set's slots form one run.
  Slots.resize(Img.numMarkers());
  for (uint32_t M = 0; M < Img.numMarkers(); ++M) {
    if (M == 0 || Img.marker(M).SetId != Img.marker(M - 1).SetId)
      MarkerSets.push_back(MarkerSet{M, M, ++LastGen});
    ++MarkerSets.back().End;
    Slots[M].Set = static_cast<uint32_t>(MarkerSets.size() - 1);
  }
}

void ViolationMonitor::beginRun() {
  for (auto &Flags : MemberExecuted)
    std::fill(Flags.begin(), Flags.end(), false);
  for (MarkerSet &Set : MarkerSets)
    Set.Gen = ++LastGen;
  RunFresh = false;
  RunConsistent = false;
  // Records are per-run detail (moved into each RunResult); clearing keeps
  // the cap from starving later runs.
  Records.clear();
}

void ViolationMonitor::onPowerFailure() {
  std::fill(Bits.begin(), Bits.end(), 0);
}

void ViolationMonitor::record(ViolationRecord R) {
  if (Sink)
    Sink->violation(R.Tau, R.Site.Label, R.SetId, violationKindName(R.K));
  if (R.K == ViolationRecord::Kind::FreshBitVec ||
      R.K == ViolationRecord::Kind::FreshFormal)
    RunFresh = true;
  else
    RunConsistent = true;
  if (Records.size() < 256)
    Records.push_back(std::move(R));
}

bool ViolationMonitor::memberExecuted(MemberRef M, InstrRef Site,
                                      uint64_t Tau) {
  // Checks run before this operation's bit is set, since members reached
  // through different call sites can share the same static input
  // instruction.
  const ConsistentSetPlan &SP = Plan.Sets[M.Set];
  auto &Executed = MemberExecuted[M.Set];
  // Re-execution of an already-executed member starts a new dynamic
  // activation of the set (Definition 3 scopes consistency to one
  // activation of the declaring function).
  if (Executed[M.Member])
    std::fill(Executed.begin(), Executed.end(), false);
  // Check every *other* executed member: its operation's bit must still
  // be set, i.e. no power failure separated it from this input (§7.3).
  bool Failed = false;
  for (size_t Other = 0; Other < SP.Members.size(); ++Other) {
    if (Other == M.Member || !Executed[Other])
      continue;
    if (!bit(MemberBit[M.Set][Other])) {
      Failed = true;
      ViolationRecord R;
      R.K = ViolationRecord::Kind::ConsistentBitVec;
      R.Site = Site;
      R.SetId = SP.SetId;
      R.Tau = Tau;
      record(std::move(R));
      break;
    }
  }
  Executed[M.Member] = true;
  return Failed;
}

void ViolationMonitor::finishInput(uint32_t InputOrd, InstrRef Site,
                                   bool Checked, bool Failed, uint64_t Tau) {
  if (Sink && Checked)
    Sink->monitorCheck(Tau, Site.Label, Failed);
  Bits[InputOrd / 64] |= uint64_t{1} << (InputOrd % 64);
}

void ViolationMonitor::onFreshUse(InstrRef Site,
                                  std::span<const uint32_t> InputOrds,
                                  uint64_t Tau) {
  bool Failed = false;
  for (size_t I = 0; I < InputOrds.size(); ++I) {
    if (bit(InputOrds[I]))
      continue;
    Failed = true;
    ViolationRecord R;
    R.K = ViolationRecord::Kind::FreshBitVec;
    R.Site = Site;
    R.Tau = Tau;
    R.StaleOp = Img.inputSite(InputOrds[I]).Label;
    record(std::move(R));
    break;
  }
  if (Sink)
    Sink->monitorCheck(Tau, Site.Label, Failed);
}

void ViolationMonitor::freshUseFormal(InstrRef Site, EpochSpan Taint,
                                      uint64_t Epoch, uint64_t Tau) {
  // Epochs never decrease, so an input outside the use's epoch is older.
  const bool Failed = !Taint.allIn(Epoch);
  if (Failed) {
    ViolationRecord R;
    R.K = ViolationRecord::Kind::FreshFormal;
    R.Site = Site;
    R.Tau = Tau;
    R.EpochA = Taint.min();
    R.EpochB = Epoch;
    record(std::move(R));
  }
  if (Sink)
    Sink->monitorCheck(Tau, Site.Label, Failed);
}

void ViolationMonitor::onConsistentMarker(uint32_t MarkerOrd, EpochSpan Taint,
                                          uint64_t Tau) {
  MarkerSlot &Slot = Slots[MarkerOrd];
  MarkerSet &Set = MarkerSets[Slot.Set];
  // A marker already recorded in this activation starts a new dynamic
  // activation of the set: drop the previous instance.
  if (Slot.Gen == Set.Gen)
    Set.Gen = ++LastGen;
  Slot.Taint = Taint;
  Slot.Gen = Set.Gen;

  // All inputs across the set's recorded members must share one epoch.
  EpochSpan Joined;
  for (uint32_t I = Set.Begin; I < Set.End; ++I)
    if (Slots[I].Gen == Set.Gen)
      Joined = Joined.join(Slots[I].Taint);
  const ConsistentMarker &Marker = Img.marker(MarkerOrd);
  const bool Failed = !Joined.empty() && Joined.min() != Joined.max();
  if (Failed) {
    ViolationRecord R;
    R.K = ViolationRecord::Kind::ConsistentFormal;
    R.SetId = Marker.SetId;
    R.Tau = Tau;
    R.EpochA = Joined.min();
    R.EpochB = Joined.max();
    record(std::move(R));
  }
  if (Sink)
    Sink->monitorCheck(Tau, Marker.Label, Failed);
}
