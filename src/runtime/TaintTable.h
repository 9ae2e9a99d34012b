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
///  * A *sequence* is the list of distinct reboot epochs of a value's
///    inputs, in first-appearance order. `merge(A, B)` is A followed by the
///    epochs of B not already in A: the order the taint-augmented semantics
///    has always kept, which matters because violation details name the
///    first epoch that fails a check. The formal monitor reads only epochs
///    and the oracle only a sequence's oldest and newest one, so epochs are
///    all the table keeps of an input.
///  * `single()` returns one cached sequence per epoch, so inside an epoch
///    every merge takes its `A == B` path. Epochs never decrease (the
///    interpreter's counter only counts up), so only the last stored epoch
///    can equal a new input's.
///  * Each epoch is stored once; sequences store epoch ordinals, plus the
///    oldest and newest epoch (`span()`), so "is every input in the current
///    epoch" is O(1).
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
  TaintTable();

  /// The one-epoch sequence of an input collected in \p Epoch. Epochs
  /// must never decrease from one call to the next; every input of one
  /// epoch gets the same id.
  TaintId single(uint64_t Epoch) {
    if (EpochSingle != 0 && Entries[EpochSingle].Span.Min == Epoch)
      return EpochSingle;
    return singleSlow(Epoch);
  }

  /// \p A followed by the epochs of \p B not already in \p A.
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

  /// Number of epochs in \p T.
  size_t length(TaintId T) const { return Entries[T].Len; }
  /// The \p I-th epoch of \p T, in first-appearance order.
  uint64_t at(TaintId T, size_t I) const {
    return Epochs[Ords[Entries[T].Begin + I]];
  }
  /// The oldest and newest epoch of \p T (empty for the empty sequence).
  EpochSpan span(TaintId T) const { return Entries[T].Span; }
  /// True when every input of \p T was collected in \p Epoch (vacuously
  /// true for the empty sequence, whose span has Min > Max).
  bool allInEpoch(TaintId T, uint64_t Epoch) const {
    const EpochSpan &S = Entries[T].Span;
    return S.Min >= Epoch && S.Max <= Epoch;
  }

  /// Sequences stored, the empty one included.
  size_t size() const { return Entries.size(); }
  /// Distinct epochs stored.
  size_t numEpochs() const { return Epochs.size(); }

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
    EpochSpan Span;
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

  TaintId singleSlow(uint64_t Epoch);
  TaintId mergeSlow(TaintId A, TaintId B);

  std::vector<uint64_t> Epochs; ///< Distinct, in increasing order.
  std::vector<uint32_t> Ords; ///< Sequences' epoch ordinals, back to back.
  std::vector<Entry> Entries; ///< Indexed by TaintId; [0] is empty.
  /// Per-epoch scratch stamps for mergeSlow's membership test.
  std::vector<uint32_t> Mark;
  uint32_t Stamp = 0;
  /// The one-epoch sequence single() returns for its epoch (0 when none
  /// is cached).
  TaintId EpochSingle = 0;
  std::array<MemoSlot, size_t{1} << MemoBits> Memo{};
  uint32_t Gen = 1;
  size_t NextCompaction = CompactFloor;
};

} // namespace ocelot

#endif // OCELOT_RUNTIME_TAINTTABLE_H
