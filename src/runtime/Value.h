//===- Value.h - Runtime values with input taint ----------------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime values optionally carry *dynamic input taint* — the reboot
/// epochs of the inputs the value depends on. This implements the paper's
/// taint-augmented semantics (Appendix B) at the grain the formal
/// freshness / temporal-consistency checker (Definitions 2 and 3) and the
/// input-epoch oracle read, and both evaluate it directly at run time.
///
/// A value does not hold its epochs itself: it holds a `TaintId` naming an
/// epoch sequence interned in its interpreter's `TaintTable`
/// (runtime/TaintTable.h). Id 0 is the empty sequence, which every value
/// carries while taint tracking is off. `InputEvent` is for execution
/// traces and replay only; taint never stores one.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_RUNTIME_VALUE_H
#define OCELOT_RUNTIME_VALUE_H

#include "ir/Opcode.h"

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace ocelot {

/// One input operation observed at run time (for traces / replay).
struct InputEvent {
  int Sensor = -1;
  uint64_t Tau = 0;    ///< Logical time of collection.
  uint64_t Epoch = 0;  ///< Reboot count at collection.
  int64_t Value = 0;   ///< The sensed value (for traces / replay).

  bool operator==(const InputEvent &O) const {
    return Sensor == O.Sensor && Tau == O.Tau && Epoch == O.Epoch &&
           Value == O.Value;
  }
};

/// Handle to an interned taint sequence in a `TaintTable`; 0 is empty.
using TaintId = uint32_t;

/// The oldest and newest reboot epoch of a value's inputs. The empty span
/// (an untainted value) has Min > Max, so `join` needs no special case.
struct EpochSpan {
  uint64_t Min = UINT64_MAX;
  uint64_t Max = 0;

  bool empty() const { return Min > Max; }
  void join(EpochSpan O) {
    Min = std::min(Min, O.Min);
    Max = std::max(Max, O.Max);
  }
  bool operator==(const EpochSpan &) const = default;
};

/// A runtime value: the 64-bit payload plus (when taint tracking is on) the
/// id of the input epochs it depends on. Plain data, copied by value.
struct RtValue {
  int64_t V = 0;
  TaintId Taint = 0;

  RtValue() = default;
  explicit RtValue(int64_t V, TaintId Taint = 0) : V(V), Taint(Taint) {}
};

static_assert(sizeof(RtValue) == 16 &&
                  std::is_trivially_copyable_v<RtValue> &&
                  std::is_standard_layout_v<RtValue>,
              "RtValue must stay a 16-byte POD");

/// One observable output (log / alarm / send / uart).
struct OutputEvent {
  OutputKind Kind = OutputKind::Log;
  std::vector<int64_t> Args;
  uint64_t Tau = 0;

  bool sameContent(const OutputEvent &O) const {
    return Kind == O.Kind && Args == O.Args;
  }
};

} // namespace ocelot

#endif // OCELOT_RUNTIME_VALUE_H
