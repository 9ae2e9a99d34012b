//===- TaintTable.h - Interned dynamic input taint --------------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The store behind every `RtValue::Taint` id. Each interpreter owns one
/// table for the lifetime of its simulated device.
///
///  * A *sequence* is an insertion-ordered list of distinct input events.
///    `merge(A, B)` is A followed by the events of B not already in A: the
///    order the taint-augmented semantics has always kept, which matters
///    because violation details name the first event that fails a check.
///  * Each `InputEvent` is stored once; sequences store event ordinals,
///    plus the minimum and maximum reboot epoch over their events, so "is
///    every event in the current epoch" is O(1).
///  * The table's *grain* is fixed at construction. `Grain::Event` keeps
///    every event (sensor, tau, epoch, value); the input-epoch oracle needs
///    it, because its records list whole events. `Grain::Epoch` interns
///    inputs by reboot epoch: `single()` returns one cached sequence per
///    epoch, so within an epoch `merge` takes its `A == B` path, and a
///    sequence is the epochs of its events in first-appearance order. That
///    is exact for the formal monitor, whose verdicts and details read only
///    the epoch of the first event, or of the first event whose epoch
///    differs, and mapping events to epochs commutes with `merge`:
///    `A ++ (B \ A)` maps to `ep(A) ++ (ep(B) \ ep(A))`. In epoch grain a
///    stored event stands for every input of its epoch: its `Sensor`,
///    `Tau` and `Value` are one such input's and carry no meaning.
///  * Unions are memoized in a fixed-size, direct-mapped array tagged with
///    a generation. A miss allocates nothing; the generation bump at
///    compaction invalidates every slot at once.
///  * Compaction keeps only the sequences reachable from a caller-supplied
///    root set (the interpreter passes its NVM at the start of each run,
///    when no register, undo log, snapshot or monitor record is live) and
///    renumbers them. It runs only once the table has doubled since the
///    last compaction, so its cost amortizes to O(1) per entry created.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_RUNTIME_TAINTTABLE_H
#define OCELOT_RUNTIME_TAINTTABLE_H

#include "runtime/Value.h"

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ocelot {

class TaintTable {
public:
  /// What one stored event stands for (see the file comment).
  enum class Grain : uint8_t { Event, Epoch };

  explicit TaintTable(Grain G = Grain::Event);

  Grain grain() const { return G; }

  /// The one-event sequence of an input just collected. Events must arrive
  /// in non-decreasing Tau (the logical clock never runs backward); an
  /// event equal to one already interned reuses its ordinal, so equal
  /// events dedup across sequences exactly as by value. In epoch grain,
  /// every input of one epoch is the same event, and repeated calls
  /// within an epoch return the same id.
  TaintId single(const InputEvent &E) {
    if (EpochSingle != 0 && Entries[EpochSingle].MinEpoch == E.Epoch)
      return EpochSingle;
    return singleSlow(E);
  }

  /// \p A followed by the events of \p B not already in \p A.
  TaintId merge(TaintId A, TaintId B) {
    if (B == 0 || A == B)
      return A;
    if (A == 0)
      return B;
    MemoSlot &S = Memo[slotOf(A, B)];
    if (S.Gen == Gen && S.A == A && S.B == B)
      return S.Result;
    TaintId R = mergeSlow(A, B);
    S = MemoSlot{A, B, R, Gen};
    return R;
  }

  /// Number of events in \p T.
  size_t length(TaintId T) const { return Entries[T].Len; }
  /// The \p I-th event of \p T, in insertion order.
  const InputEvent &at(TaintId T, size_t I) const {
    return Events[Ords[Entries[T].Begin + I]];
  }
  /// Appends the events of \p T to \p Out, in insertion order.
  void appendTo(TaintId T, std::vector<InputEvent> &Out) const {
    for (size_t I = 0, N = length(T); I < N; ++I)
      Out.push_back(at(T, I));
  }
  /// True when every event of \p T was collected in \p Epoch (vacuously
  /// true for the empty sequence).
  bool allInEpoch(TaintId T, uint64_t Epoch) const {
    const Entry &E = Entries[T];
    return E.Len == 0 || (E.MinEpoch == Epoch && E.MaxEpoch == Epoch);
  }

  /// Sequences stored, the empty one included.
  size_t size() const { return Entries.size(); }
  /// Distinct events stored.
  size_t numEvents() const { return Events.size(); }

  /// Drops every sequence not named by a value in \p Roots and renumbers
  /// the rest, rewriting the roots' ids in place. Every id not in
  /// \p Roots is invalid afterwards.
  void compact(std::vector<RtValue> &Roots);

  /// compact(), but only once the table has doubled since the last
  /// compaction (and holds at least CompactFloor entries).
  void compactIfGrown(std::vector<RtValue> &Roots) {
    if (footprint() >= NextCompaction)
      compact(Roots);
  }

  /// Smallest footprint at which compactIfGrown compacts.
  static constexpr size_t CompactFloor = 4096;

private:
  struct Entry {
    uint32_t Begin = 0; ///< First ordinal in Ords.
    uint32_t Len = 0;
    uint64_t MinEpoch = 0;
    uint64_t MaxEpoch = 0;
  };
  struct MemoSlot {
    TaintId A = 0, B = 0, Result = 0;
    uint32_t Gen = 0; ///< Valid only when equal to the table's Gen.
  };
  static constexpr unsigned MemoBits = 10;

  static size_t slotOf(TaintId A, TaintId B) {
    uint64_t K = (static_cast<uint64_t>(A) << 32 | B) * 0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(K >> (64 - MemoBits));
  }
  /// What the growth policy measures: entries plus stored ordinals.
  size_t footprint() const { return Entries.size() + Ords.size(); }

  TaintId singleSlow(const InputEvent &E);
  TaintId mergeSlow(TaintId A, TaintId B);

  std::vector<InputEvent> Events;
  std::vector<uint32_t> Ords; ///< Sequences' event ordinals, back to back.
  std::vector<Entry> Entries; ///< Indexed by TaintId; [0] is empty.
  /// Per-event scratch stamps for mergeSlow's membership test.
  std::vector<uint32_t> Mark;
  uint32_t Stamp = 0;
  /// Epoch grain: the one-event sequence single() returns for its epoch
  /// (0 when none is cached; always 0 in event grain).
  TaintId EpochSingle = 0;
  std::array<MemoSlot, size_t{1} << MemoBits> Memo{};
  uint32_t Gen = 1;
  Grain G;
  size_t NextCompaction = CompactFloor;
};

} // namespace ocelot

#endif // OCELOT_RUNTIME_TAINTTABLE_H
