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
/// Every verdict depends only on the oldest and newest epoch of a value's
/// inputs, so a value carries exactly that: an inline `EpochSpan`. Merging
/// two values' taint is two `std::max`, independent of operand order. The
/// empty span (an untainted value, and every value while taint tracking is
/// off) is all-zero bits, so a value-initialized register file or NVM
/// array is one memset. `InputEvent` is for execution traces and replay
/// only; taint never stores one.
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

/// The oldest and newest reboot epoch of a value's inputs, in 32 bits each
/// (the interpreter traps before a reboot would take the epoch past
/// UINT32_MAX). Stored as `~min` and `max`, so the empty span is all-zero
/// bits and `join` needs no special case: two `std::max`.
class EpochSpan {
public:
  EpochSpan() = default;
  /// The span of one input collected in \p Epoch.
  static EpochSpan of(uint32_t Epoch) { return EpochSpan(~Epoch, Epoch); }

  bool empty() const { return ~NotMin > Max; }
  /// Oldest and newest epoch; min() > max() when empty().
  uint32_t min() const { return ~NotMin; }
  uint32_t max() const { return Max; }
  /// True when every input was collected in \p Epoch (vacuously true when
  /// empty).
  bool allIn(uint64_t Epoch) const { return min() >= Epoch && Max <= Epoch; }

  /// The span of both operands' inputs.
  [[nodiscard]] EpochSpan join(EpochSpan O) const {
    return EpochSpan(std::max(NotMin, O.NotMin), std::max(Max, O.Max));
  }
  bool operator==(const EpochSpan &) const = default;

private:
  EpochSpan(uint32_t NotMin, uint32_t Max) : NotMin(NotMin), Max(Max) {}

  uint32_t NotMin = 0; ///< ~min; 0 when empty.
  uint32_t Max = 0;
};

/// A runtime value: the 64-bit payload plus (when taint tracking is on) the
/// epoch span of the inputs it depends on. Plain data, copied by value.
struct RtValue {
  int64_t V = 0;
  EpochSpan Taint;

  RtValue() = default;
  explicit RtValue(int64_t V, EpochSpan Taint = {}) : V(V), Taint(Taint) {}
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
