//===- EnergyModel.h - Capacitor + harvester energy model -------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Capybara-style energy front end (§6.3): a capacitor measured in cycle
/// units and a voltage-comparator low-power trigger whose threshold is
/// raised so a JIT checkpoint always fits in the remaining reserve. The
/// harvesting side — how full each refill gets and how long the device
/// stays off collecting it — is delegated to a pluggable `PowerSource`
/// (src/power/PowerSource.h): the paper's off-times are "dictated by the
/// physical environment", and the source *is* that environment. With no
/// source configured the model uses `legacyJitterSource()`, the original
/// uniform-jitter recharge math, bit-for-bit.
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_RUNTIME_ENERGYMODEL_H
#define OCELOT_RUNTIME_ENERGYMODEL_H

#include "support/Rng.h"

#include <cassert>
#include <cstdint>
#include <memory>

namespace ocelot {

class PowerSource;

struct EnergyConfig {
  /// Usable energy per charge cycle, in instruction-cycle units. The
  /// default holds roughly two benchmark activations of work, so power
  /// failures interrupt most runs — matching the paper's RF-harvesting
  /// testbed where charging dominates (Fig. 8) and JIT builds violate
  /// policies frequently (Table 2(b)).
  uint64_t CapacityCycles = 2200;
  /// Reserve kept for the JIT checkpoint ISR (raised comparator trigger,
  /// §6.3); must cover the checkpoint of the deepest volatile context.
  uint64_t ReserveCycles = 350;
  /// Nominal energy harvested per off-time unit (cycles of energy per tau
  /// unit). Synthetic power sources scale this; trace-driven sources carry
  /// their own absolute rates.
  double ChargeRate = 0.1;
  /// Multiplicative jitter on each recharge duration (0 = deterministic).
  /// Used by the legacy-jitter source.
  double ChargeJitter = 0.25;
  /// Fraction of capacity by which each refill may fall short (harvesting
  /// variability). Without this, failures are phase-locked to fixed points
  /// of the program and can systematically miss (or hit) narrow windows.
  double RefillJitter = 0.2;
};

/// Tracks stored energy during execution. All consumption is in cycle
/// units; when the remaining energy drops to the reserve, the comparator
/// fires (PowerLow) and the runtime must stop within the reserve budget.
class EnergyModel {
public:
  /// \p Source decides refill targets and off-times; null selects the
  /// legacy uniform-jitter behavior. The source must be immutable (it is
  /// shared); per-recharge randomness comes from this model's private
  /// seed-derived Rng.
  EnergyModel(const EnergyConfig &Cfg, uint64_t Seed,
              std::shared_ptr<const PowerSource> Source = nullptr);

  /// Consumes \p Cycles of energy. \returns true if the comparator fired
  /// (energy at or below the reserve).
  bool consume(uint64_t Cycles) {
    Energy = Cycles >= Energy ? 0 : Energy - Cycles;
    return Energy <= Cfg.ReserveCycles;
  }

  bool low() const { return Energy <= Cfg.ReserveCycles; }
  uint64_t remaining() const { return Energy; }

  /// The comparator headroom: energy above the reserve, or 0 when the
  /// level is at or below it. consume(C) fires exactly when C >= headroom()
  /// and otherwise leaves headroom() - C, which lets a dispatch loop count
  /// the comparator down in a local.
  uint64_t headroom() const {
    return Energy > Cfg.ReserveCycles ? Energy - Cfg.ReserveCycles : 0;
  }
  /// Writes a counted-down headroom \p H > 0 back as the level
  /// ReserveCycles + H (the inverse of headroom() above the reserve).
  void setHeadroom(uint64_t H) {
    assert(H > 0 && "a level at or below the reserve is not recoverable");
    Energy = Cfg.ReserveCycles + H;
  }

  /// Recharges from the power source and \returns the off-time (tau units)
  /// it took — the paper's arbitrary "pick(n)" at reboot, here tied to
  /// harvest physics. \p Tau is the absolute logical time the reboot
  /// begins at; time-varying sources (solar, traces) phase against it.
  /// Whatever the source plans, the resulting level is clamped into
  /// (ReserveCycles, CapacityCycles] and the off-time is at least 1.
  uint64_t recharge(uint64_t Tau = 0);

  const EnergyConfig &config() const { return Cfg; }

private:
  EnergyConfig Cfg;
  Rng Rand;
  uint64_t Energy;
  std::shared_ptr<const PowerSource> Source;
};

} // namespace ocelot

#endif // OCELOT_RUNTIME_ENERGYMODEL_H
