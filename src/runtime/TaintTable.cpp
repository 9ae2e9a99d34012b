//===- TaintTable.cpp - Interned dynamic input taint ---------------------------===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/TaintTable.h"

#include <algorithm>
#include <cassert>

using namespace ocelot;

TaintTable::TaintTable() { Entries.emplace_back(); }

TaintId TaintTable::singleSlow(uint64_t Epoch) {
  assert((Epochs.empty() || Epochs.back() <= Epoch) &&
         "reboot epochs must never decrease");
  // Only the last stored epoch can equal this one (after a compaction
  // dropped the cached sequence but kept its epoch).
  uint32_t Ord = static_cast<uint32_t>(Epochs.size());
  if (!Epochs.empty() && Epochs.back() == Epoch) {
    --Ord;
  } else {
    Epochs.push_back(Epoch);
    Mark.push_back(0);
  }
  Entry N;
  N.Begin = static_cast<uint32_t>(Ords.size());
  N.Len = 1;
  N.Span = EpochSpan{Epoch, Epoch};
  Ords.push_back(Ord);
  Entries.push_back(N);
  EpochSingle = static_cast<TaintId>(Entries.size() - 1);
  return EpochSingle;
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
  N.Span = EA.Span;
  N.Span.join(EB.Span);
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
  // Keep the reachable epochs in their old order (single() relies on
  // epochs staying sorted), then copy each reachable sequence once.
  constexpr uint32_t Dead = ~0u;
  std::vector<uint32_t> EpochMap(Epochs.size(), Dead);
  for (const RtValue &V : Roots) {
    const Entry &E = Entries[V.Taint];
    for (uint32_t I = 0; I < E.Len; ++I)
      EpochMap[Ords[E.Begin + I]] = 0;
  }
  std::vector<uint64_t> NewEpochs;
  for (size_t O = 0; O < Epochs.size(); ++O) {
    if (EpochMap[O] == Dead)
      continue;
    EpochMap[O] = static_cast<uint32_t>(NewEpochs.size());
    NewEpochs.push_back(Epochs[O]);
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
        NewOrds.push_back(EpochMap[Ords[E.Begin + I]]);
      E.Begin = Begin;
      New = static_cast<TaintId>(NewEntries.size());
      NewEntries.push_back(E);
    }
    V.Taint = New;
  }

  Epochs = std::move(NewEpochs);
  Ords = std::move(NewOrds);
  Entries = std::move(NewEntries);
  Mark.assign(Epochs.size(), 0);
  Stamp = 0;
  EpochSingle = 0; // Renumbered or dropped; single() makes a new one.
  if (++Gen == 0) {
    Memo.fill(MemoSlot{});
    Gen = 1;
  }
  NextCompaction = std::max(CompactFloor, 2 * footprint());
}
