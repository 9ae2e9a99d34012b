//===- FleetSpec.h - Textual, hashable sweep grid spec ----------*- C++ -*-===//
//
// Part of the Ocelot reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A `SweepSpec` holds live pointers (benchmarks, power sources, sensor
/// scenarios), which two cooperating processes cannot compare. `FleetSpec`
/// is the textual form the fleet tools exchange instead: every dimension
/// is named by string or value, `canonical()` serializes it
/// deterministically, and `hash()` of that text is stamped into each
/// shard's manifest — so `merge` and `run --resume` can prove all parties
/// evaluated the *same* grid before trusting each other's bytes.
///
/// `resolve()` turns the names back into a `SweepSpec` through the same
/// registries the CLIs use (`findBenchmark`, `resolvePowerSource`,
/// `resolveSensorScenario`); the token `default` in the power/scenario
/// dimensions maps to the nullptr column (legacy-jitter power, the
/// benchmark's own seeded-noise world).
///
//===----------------------------------------------------------------------===//

#ifndef OCELOT_FLEET_FLEETSPEC_H
#define OCELOT_FLEET_FLEETSPEC_H

#include "harness/SweepRunner.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ocelot {

/// The fleet-level sweep description. Field order mirrors the cell
/// enumeration order of SweepSpec (model-major, seed-minor).
struct FleetSpec {
  std::vector<std::string> Models;     ///< "ocelot", "jit", "atomics", "check".
  std::vector<std::string> Benchmarks; ///< Names from allBenchmarks().
  std::vector<EnergyConfig> Energies;
  /// Power profile specs ("default" = the legacy-jitter nullptr column;
  /// otherwise anything resolvePowerSource accepts). Empty = one implicit
  /// "default" column, matching SweepSpec::powerCount().
  std::vector<std::string> Powers;
  /// Sensor scenario specs ("default" = the benchmark's own seeded noise).
  std::vector<std::string> Scenarios;
  std::vector<uint64_t> Seeds;
  uint64_t TauBudget = 0;
  bool Monitors = true; ///< Arm the bit-vector (§7.3) violation monitor.
  /// Score outputs with the input-epoch consistency oracle and carry the
  /// oracle/enforcement columns in every cell record (table7 grids).
  bool Oracle = false;

  /// Deterministic text serialization: one `key value...` line per field,
  /// doubles in %.17g. Equal specs produce equal text; this is what
  /// hash() digests and what `ocelot-fleet plan` prints.
  std::string canonical() const;

  /// FNV-1a 64 of canonical() — the spec fingerprint shards and manifests
  /// carry.
  uint64_t hash() const;

  /// Resolves every name into a runnable SweepSpec. On failure returns
  /// false and sets \p Error to an actionable message (unknown benchmark /
  /// model / power / scenario, zero tau budget, empty dimension).
  bool resolve(SweepSpec &Out, std::string &Error) const;
};

/// FNV-1a 64-bit over \p Text — shared by FleetSpec::hash and the
/// manifest's line checksum.
uint64_t fnv1a64(const std::string &Text);

/// Splits a comma-separated flag value ("a,b,c") into trimmed non-empty
/// tokens.
std::vector<std::string> splitCommaList(const std::string &Value);

} // namespace ocelot

#endif // OCELOT_FLEET_FLEETSPEC_H
