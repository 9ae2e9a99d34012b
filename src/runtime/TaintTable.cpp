//===- TaintTable.cpp - Interned dynamic input taint ---------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/TaintTable.h"

#include <algorithm>
#include <cassert>

using namespace ocelot;

TaintTable::TaintTable(Grain G) : G(G) { Entries.emplace_back(); }

TaintId TaintTable::singleSlow(const InputEvent &E) {
  assert((Events.empty() || Events.back().Tau <= E.Tau) &&
         "input events must arrive in non-decreasing tau");
  uint32_t Ord = static_cast<uint32_t>(Events.size());
  if (G == Grain::Epoch) {
    // Epochs never decrease either, so only the last event can stand for
    // this one's epoch.
    if (!Events.empty() && Events.back().Epoch == E.Epoch)
      --Ord;
  } else {
    // An equal event can only be among the trailing same-tau events.
    for (size_t I = Events.size(); I-- > 0 && Events[I].Tau == E.Tau;) {
      if (Events[I] == E) {
        Ord = static_cast<uint32_t>(I);
        break;
      }
    }
  }
  if (Ord == Events.size()) {
    Events.push_back(E);
    Mark.push_back(0);
  }
  Entry N;
  N.Begin = static_cast<uint32_t>(Ords.size());
  N.Len = 1;
  N.MinEpoch = N.MaxEpoch = E.Epoch;
  Ords.push_back(Ord);
  Entries.push_back(N);
  const TaintId Id = static_cast<TaintId>(Entries.size() - 1);
  if (G == Grain::Epoch)
    EpochSingle = Id;
  return Id;
}

TaintId TaintTable::mergeSlow(TaintId A, TaintId B) {
  const Entry EA = Entries[A], EB = Entries[B];
  if (++Stamp == 0) {
    std::fill(Mark.begin(), Mark.end(), 0);
    Stamp = 1;
  }
  for (uint32_t I = 0; I < EA.Len; ++I)
    Mark[Ords[EA.Begin + I]] = Stamp;
  uint32_t Added = 0;
  for (uint32_t I = 0; I < EB.Len; ++I)
    Added += Mark[Ords[EB.Begin + I]] != Stamp;
  if (Added == 0)
    return A; // B ⊆ A.

  Entry N;
  N.Begin = static_cast<uint32_t>(Ords.size());
  N.Len = EA.Len + Added;
  N.MinEpoch = std::min(EA.MinEpoch, EB.MinEpoch);
  N.MaxEpoch = std::max(EA.MaxEpoch, EB.MaxEpoch);
  // Reserve first: the copies below read from Ords itself.
  Ords.reserve(Ords.size() + N.Len);
  for (uint32_t I = 0; I < EA.Len; ++I)
    Ords.push_back(Ords[EA.Begin + I]);
  for (uint32_t I = 0; I < EB.Len; ++I) {
    uint32_t O = Ords[EB.Begin + I];
    if (Mark[O] != Stamp)
      Ords.push_back(O);
  }
  Entries.push_back(N);
  return static_cast<TaintId>(Entries.size() - 1);
}

void TaintTable::compact(std::vector<RtValue> &Roots) {
  // Keep the reachable events in their old order (single() relies on
  // events staying sorted by tau), then copy each reachable sequence once.
  constexpr uint32_t Dead = ~0u;
  std::vector<uint32_t> EventMap(Events.size(), Dead);
  for (const RtValue &V : Roots) {
    const Entry &E = Entries[V.Taint];
    for (uint32_t I = 0; I < E.Len; ++I)
      EventMap[Ords[E.Begin + I]] = 0;
  }
  std::vector<InputEvent> NewEvents;
  for (size_t O = 0; O < Events.size(); ++O) {
    if (EventMap[O] == Dead)
      continue;
    EventMap[O] = static_cast<uint32_t>(NewEvents.size());
    NewEvents.push_back(Events[O]);
  }

  std::vector<TaintId> IdMap(Entries.size(), 0);
  std::vector<Entry> NewEntries(1);
  std::vector<uint32_t> NewOrds;
  for (RtValue &V : Roots) {
    if (V.Taint == 0)
      continue;
    TaintId &New = IdMap[V.Taint];
    if (New == 0) {
      Entry E = Entries[V.Taint];
      uint32_t Begin = static_cast<uint32_t>(NewOrds.size());
      for (uint32_t I = 0; I < E.Len; ++I)
        NewOrds.push_back(EventMap[Ords[E.Begin + I]]);
      E.Begin = Begin;
      New = static_cast<TaintId>(NewEntries.size());
      NewEntries.push_back(E);
    }
    V.Taint = New;
  }

  Events = std::move(NewEvents);
  Ords = std::move(NewOrds);
  Entries = std::move(NewEntries);
  Mark.assign(Events.size(), 0);
  Stamp = 0;
  EpochSingle = 0; // Renumbered or dropped; single() makes a new one.
  if (++Gen == 0) {
    Memo.fill(MemoSlot{});
    Gen = 1;
  }
  NextCompaction = std::max(CompactFloor, 2 * footprint());
}
