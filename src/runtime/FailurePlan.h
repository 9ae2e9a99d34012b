//===- FailurePlan.h - Power-failure injection ------------------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decides when the low-power comparator fires during simulation:
///
///  * None — continuously powered execution;
///  * EnergyDriven — the capacitor model decides (Fig. 8, Table 2(b));
///  * Pathological — fail immediately before chosen instructions, once per
///    program run: the paper's §7.3 experiment ("power failures immediately
///    before the use of a fresh variable and between input operations in a
///    consistent set", Table 2(a));
///  * Random — per-instruction probability.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_RUNTIME_FAILUREPLAN_H
#define OCELOT_RUNTIME_FAILUREPLAN_H

#include "ir/Instruction.h"
#include "support/Rng.h"

#include <set>

namespace ocelot {

class FailurePlan {
public:
  enum class Kind { None, EnergyDriven, Pathological, Random };

  static FailurePlan none();
  static FailurePlan energyDriven();
  static FailurePlan pathological(std::set<InstrRef> Points);
  static FailurePlan random(double PerInstrProb);

  Kind kind() const { return K; }

  /// Off-time range for plans that are not energy-driven (tau units drawn
  /// uniformly per reboot).
  void setOffTime(uint64_t Lo, uint64_t Hi) {
    OffLo = Lo;
    OffHi = Hi < Lo ? Lo : Hi;
  }
  uint64_t drawOffTime(Rng &R) const {
    // nextInRangeU64 handles the full uint64_t range; the old cast through
    // nextInRange(int64_t) silently narrowed bounds above INT64_MAX.
    return R.nextInRangeU64(OffLo, OffHi);
  }

  /// Called at the start of each program run (main invocation): re-arms
  /// pathological points.
  void resetRun();

  /// \returns true if a failure must be injected immediately before
  /// executing \p I (pathological points fire once per run).
  bool firesBefore(InstrRef I, Rng &R);

  bool isEnergyDriven() const { return K == Kind::EnergyDriven; }

private:
  Kind K = Kind::None;
  std::set<InstrRef> Points;
  std::set<InstrRef> Fired;
  double Prob = 0.0;
  uint64_t OffLo = 5000;
  uint64_t OffHi = 50000;
};

} // namespace ocelot

#endif // OCELOT_RUNTIME_FAILUREPLAN_H
