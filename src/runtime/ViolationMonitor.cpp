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
}

void ViolationMonitor::beginRun() {
  for (auto &Flags : MemberExecuted)
    std::fill(Flags.begin(), Flags.end(), false);
  SetRecords.clear();
  RunFresh = false;
  RunConsistent = false;
  // Records are per-run detail (the cumulative history is summarized by
  // the saw*() flags); clearing keeps the cap from starving later runs.
  Records.clear();
}

void ViolationMonitor::onPowerFailure() {
  std::fill(Bits.begin(), Bits.end(), 0);
}

void ViolationMonitor::record(ViolationRecord R) {
  if (Sink)
    Sink->violation(R.Tau, R.Site.Label, R.SetId, violationKindName(R.K));
  if (R.K == ViolationRecord::Kind::FreshBitVec ||
      R.K == ViolationRecord::Kind::FreshFormal) {
    FreshViolated = true;
    RunFresh = true;
  } else {
    ConsistentViolated = true;
    RunConsistent = true;
  }
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
      R.Detail = "input collected after a power failure split "
                 "consistent set " +
                 std::to_string(SP.SetId);
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
    R.Detail = "use of stale input: operation @" +
               std::to_string(Img.inputSite(InputOrds[I]).Label) +
               "'s bit cleared by a power failure";
    record(std::move(R));
    break;
  }
  if (Sink)
    Sink->monitorCheck(Tau, Site.Label, Failed);
}

void ViolationMonitor::onFreshUseFormal(InstrRef Site,
                                        const TaintTable &Taints,
                                        TaintId Taint, uint64_t Epoch,
                                        uint64_t Tau) {
  bool Failed = false;
  if (!Taints.allInEpoch(Taint, Epoch)) {
    for (size_t I = 0, N = Taints.length(Taint); I < N; ++I) {
      const InputEvent &E = Taints.at(Taint, I);
      if (E.Epoch == Epoch)
        continue;
      Failed = true;
      ViolationRecord R;
      R.K = ViolationRecord::Kind::FreshFormal;
      R.Site = Site;
      R.Tau = Tau;
      R.Detail = "value depends on an input collected in reboot epoch " +
                 std::to_string(E.Epoch) + " but is used in epoch " +
                 std::to_string(Epoch);
      record(std::move(R));
      break;
    }
  }
  if (Sink)
    Sink->monitorCheck(Tau, Site.Label, Failed);
}

void ViolationMonitor::onConsistentMarker(int SetId, uint32_t MarkerLabel,
                                          const TaintTable &Taints,
                                          TaintId Taint, uint64_t Tau) {
  // This set's records are [Lo, Hi); Pos is where MarkerLabel sorts.
  const auto Begin = SetRecords.begin();
  size_t Lo = std::lower_bound(Begin, SetRecords.end(), SetId,
                               [](const SetRecord &S, int Id) {
                                 return S.SetId < Id;
                               }) -
              Begin;
  size_t Hi = Lo;
  while (Hi < SetRecords.size() && SetRecords[Hi].SetId == SetId)
    ++Hi;
  size_t Pos = std::lower_bound(Begin + Lo, Begin + Hi, MarkerLabel,
                                [](const SetRecord &S, uint32_t L) {
                                  return S.Label < L;
                                }) -
               Begin;
  if (Pos < Hi && SetRecords[Pos].Label == MarkerLabel) {
    // New dynamic activation of the set: drop the previous instance.
    SetRecords.erase(Begin + Lo, Begin + Hi);
    Pos = Hi = Lo;
  }
  SetRecords.insert(SetRecords.begin() + Pos,
                    SetRecord{SetId, MarkerLabel, Taint});
  ++Hi;

  // All events across the set's recorded members must share one epoch:
  // the first event's, in (marker label, insertion) order.
  bool HaveEpoch = false;
  uint64_t SetEpoch = 0;
  for (size_t I = Lo; I < Hi; ++I) {
    const TaintId T = SetRecords[I].Taint;
    if (Taints.length(T) == 0)
      continue;
    if (!HaveEpoch) {
      SetEpoch = Taints.at(T, 0).Epoch;
      HaveEpoch = true;
    }
    if (Taints.allInEpoch(T, SetEpoch))
      continue;
    for (size_t EI = 0, N = Taints.length(T); EI < N; ++EI) {
      const InputEvent &E = Taints.at(T, EI);
      if (E.Epoch == SetEpoch)
        continue;
      ViolationRecord R;
      R.K = ViolationRecord::Kind::ConsistentFormal;
      R.SetId = SetId;
      R.Tau = Tau;
      R.Detail = "consistent set " + std::to_string(SetId) +
                 " holds inputs from reboot epochs " +
                 std::to_string(SetEpoch) + " and " +
                 std::to_string(E.Epoch);
      record(std::move(R));
      if (Sink)
        Sink->monitorCheck(Tau, MarkerLabel, true);
      return;
    }
  }
  if (Sink)
    Sink->monitorCheck(Tau, MarkerLabel, false);
}
